//! The two cluster workloads, node side: one OS process per rank on the
//! mprotect/SIGSEGV engine over loopback UDP. Both loops are the
//! benchmark's own and page-strided, so they are data-race-free at
//! page granularity (docs/CLUSTER.md); in `cluster_kv` the ranks take
//! turns within a round, so that neither wakes the other's reactor out
//! of a socket wait at a moment of the host's choosing (README,
//! "Pinning"). Both run rounds until the window has elapsed: rank 0
//! reads the clock when a round ends and publishes a stop word through
//! the DSM, which both ranks read after the round's closing barrier — a
//! fault path fifty times faster still yields a full-length run.

use crate::child::{self, ChildArgs};
use crate::sim::kv_digest;
use crate::spec;
use crate::sys;
use crate::trace::{self, Call, Recorder, Span, NO_OP};
use dsm_apps::kv::{self, KvOp, KvParams};
use dsm_core::{ClusterDsm, CostModel, DsmConfig, GlobalAddr, NodeId, ProtocolKind};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

pub const RANKS: u32 = 2;

/// One key per page: the E21 board shrunk until hand-offs of locks,
/// not of pages, are most of the traffic.
const KV_KEYS: usize = 64;
const KV_STRIPES: usize = 16;
/// KV operations per rank and round: a rank's turn.
pub const KV_ROUND: usize = 12;
/// Stream length per second of window: a cap, reached only by an op
/// path far faster than today's.
const KV_OPS_PER_S: f64 = 50_000.0;

/// Pages in the view of `cluster_pages`: the reactor's reconcile
/// passes scan all of them at every dispatch.
const PAGES: usize = 256;

/// The pages of the view that a round touches, half of them per rank:
/// the first so many, which keeps a round (and so the overshoot past
/// the window) well under a second at 8 ms a fault.
fn touched_pages(quick: bool) -> usize {
    if quick {
        8
    } else {
        64
    }
}

pub fn kv_params(seed: u64, window_s: f64) -> KvParams {
    // The warm-up round, and a timed one at least.
    let rounds = (window_s * KV_OPS_PER_S / KV_ROUND as f64).ceil() + 2.0;
    KvParams {
        keys: KV_KEYS,
        ops_per_node: rounds as usize * KV_ROUND,
        read_pct: 80,
        skew: 0.99,
        stripes: KV_STRIPES,
        seed,
    }
}

fn config(pages: usize) -> DsmConfig {
    let ps = dsm_vm::os_page_size();
    // The last page holds the stop word.
    DsmConfig::new(RANKS, ProtocolKind::IvyFixed)
        .heap_bytes((pages + 1) * ps)
        .page_size(ps)
        .model(CostModel::lan_1992())
}

/// What a rank's program hands to its `linger`.
#[derive(Default)]
struct RankOut {
    wall_s: f64,
    ops: u64,
    /// Values read that were not the values written.
    bad: u64,
    digest: u64,
    op_ns: Vec<u64>,
    read_fault_ns: Vec<u64>,
    write_fault_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// Publish (rank 0) and read the stop word around the round's closing
/// barrier. The second barrier keeps the next round's store from
/// racing this round's load.
fn round_end(
    d: &ClusterDsm<'_>,
    rec: &mut Recorder,
    stop_at: GlobalAddr,
    bar: &mut u32,
    stop: bool,
) -> bool {
    if d.id().0 == 0 && stop {
        d.write_u64(stop_at, 1);
    }
    let mut barrier = |rec: &mut Recorder| {
        rec.call(Call::Barrier, NO_OP, || 0, || d.barrier(*bar));
        *bar += 1;
    };
    barrier(rec);
    let stopped = d.read_u64(stop_at) != 0;
    barrier(rec);
    stopped
}

/// One KV operation: acquire the key's stripe, access, release.
fn kv_op(d: &ClusterDsm<'_>, rec: &mut Recorder, i: u32, op: &KvOp) {
    let ps = dsm_vm::os_page_size();
    let lock = (op.key % KV_STRIPES) as u32;
    let addr = GlobalAddr(op.key * ps);
    let mark = rec.begin(|| 0);
    rec.call(Call::Acquire, i, || 0, || d.acquire(lock));
    let v = rec.call(Call::Read, i, || 0, || d.read_u64(addr));
    match op.delta {
        None => {
            std::hint::black_box(v);
        }
        Some(delta) => rec.call(
            Call::Write,
            i,
            || 0,
            || d.write_u64(addr, v.wrapping_add(delta)),
        ),
    }
    rec.call(Call::Release, i, || 0, || d.release(lock));
    rec.end(Call::Op, i, mark, || 0);
}

/// The first round of the stream is the warm-up: it takes every hot
/// page and lock through its first touch, and is set-up, not timed.
fn kv_program(d: &ClusterDsm<'_>, ops: &[KvOp], window: Duration, traced: bool) -> RankOut {
    let ps = dsm_vm::os_page_size();
    let stop_at = GlobalAddr(KV_KEYS * ps);
    let mut out = RankOut::default();
    let mut rounds = ops.chunks_exact(KV_ROUND).enumerate();
    let mut off = Recorder::new(false, Instant::now());
    let mut bar = 0;
    let (_, warm_up) = rounds.next().expect("the stream holds two rounds or more");
    for turn in 0..RANKS {
        if turn == d.id().0 {
            warm_up.iter().for_each(|op| kv_op(d, &mut off, 0, op));
        }
        d.barrier(bar);
        bar += 1;
    }

    child::line(format_args!("READY"));
    let t0 = Instant::now();
    let mut rec = Recorder::new(traced, t0);
    let root = rec.begin(|| 0);
    for (round, chunk) in rounds {
        // The ranks take turns: while one runs its chunk the other
        // waits in a barrier, its runtime serving. The last turn ends
        // in the round's closing barrier.
        for turn in 0..RANKS {
            if turn == d.id().0 {
                for (i, op) in chunk.iter().enumerate() {
                    let t = Instant::now();
                    kv_op(d, &mut rec, (round * KV_ROUND + i) as u32, op);
                    out.op_ns.push(t.elapsed().as_nanos() as u64);
                }
            }
            if turn + 1 < RANKS {
                rec.call(Call::Barrier, NO_OP, || 0, || d.barrier(bar));
                bar += 1;
            }
        }
        out.ops += KV_ROUND as u64;
        let last = (round + 2) * KV_ROUND > ops.len();
        if round_end(
            d,
            &mut rec,
            stop_at,
            &mut bar,
            last || t0.elapsed() >= window,
        ) {
            break;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    rec.end(Call::Root, NO_OP, root, || 0);
    out.digest = kv_digest((0..KV_KEYS).map(|k| d.read_u64(GlobalAddr(k * ps))));
    out.spans = rec.spans;
    out
}

/// The word rank-of-the-round stores in `page` during `round`.
fn page_word(seed: u64, page: usize, round: u64) -> u64 {
    let mut x = seed ^ (page as u64) << 32 ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x | 1
}

/// One round of `cluster_pages`, no locks: in round `k` rank `r` loads
/// a word from every touched page of parity `(r + k) mod 2` — the peer
/// stored there in round `k - 1`, so each load is one read fault on a
/// page the peer owns — then, after a barrier, stores to the same
/// pages, each store one write-upgrade fault.
fn pages_round(
    d: &ClusterDsm<'_>,
    rec: &mut Recorder,
    out: &mut RankOut,
    (touched, seed, round): (usize, u64, u64),
    bar: &mut u32,
) {
    let ps = dsm_vm::os_page_size();
    let me = d.id().0 as usize;
    let mine = (0..touched).filter(|p| (p + me + round as usize) % 2 == 0);
    for page in mine.clone() {
        let touch = (out.read_fault_ns.len() + out.write_fault_ns.len()) as u32;
        let t = Instant::now();
        let mark = rec.begin(|| 0);
        let at = GlobalAddr(page * ps);
        let v = rec.call(Call::Read, touch, || 0, || d.read_u64(at));
        rec.end(Call::Op, touch, mark, || 0);
        out.read_fault_ns.push(t.elapsed().as_nanos() as u64);
        let want = match round {
            0 => 0,
            _ => page_word(seed, page, round - 1),
        };
        out.bad += u64::from(v != want);
    }
    rec.call(Call::Barrier, NO_OP, || 0, || d.barrier(*bar));
    *bar += 1;
    for page in mine {
        let touch = (out.read_fault_ns.len() + out.write_fault_ns.len()) as u32;
        let t = Instant::now();
        let mark = rec.begin(|| 0);
        let (at, word) = (GlobalAddr(page * ps), page_word(seed, page, round));
        rec.call(Call::Write, touch, || 0, || d.write_u64(at, word));
        rec.end(Call::Op, touch, mark, || 0);
        out.write_fault_ns.push(t.elapsed().as_nanos() as u64);
    }
}

/// Round 0 touches the rank's own home pages and is the warm-up: only
/// from round 1 on is every access a fault served by the peer.
fn pages_program(
    d: &ClusterDsm<'_>,
    touched: usize,
    seed: u64,
    window: Duration,
    traced: bool,
) -> RankOut {
    let stop_at = GlobalAddr(PAGES * dsm_vm::os_page_size());
    let mut bar = 0;
    let mut off = Recorder::new(false, Instant::now());
    let mut warm_up = RankOut::default();
    pages_round(d, &mut off, &mut warm_up, (touched, seed, 0), &mut bar);
    round_end(d, &mut off, stop_at, &mut bar, false);

    child::line(format_args!("READY"));
    let t0 = Instant::now();
    let mut rec = Recorder::new(traced, t0);
    let root = rec.begin(|| 0);
    let mut out = RankOut {
        bad: warm_up.bad,
        ..RankOut::default()
    };
    for round in 1.. {
        pages_round(d, &mut rec, &mut out, (touched, seed, round), &mut bar);
        if round_end(d, &mut rec, stop_at, &mut bar, t0.elapsed() >= window) {
            break;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.ops = (out.read_fault_ns.len() + out.write_fault_ns.len()) as u64;
    rec.end(Call::Root, NO_OP, root, || 0);
    out.spans = rec.spans;
    out
}

pub fn run_child(args: &ChildArgs) {
    let stdin = child::watch_stdin();
    // The reactor and fault-service threads start from this thread and
    // inherit its CPU; the application thread moves to its own below.
    sys::pin_to(args.cpu);
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind loopback UDP socket");
    child::line(format_args!(
        "PORT {}",
        sock.local_addr().expect("bound socket has an address")
    ));
    let roster = stdin.recv().expect("driver sends the roster");
    let peers: Vec<SocketAddr> = roster
        .strip_prefix("PEERS ")
        .expect("handshake out of order")
        .split_whitespace()
        .map(|a| a.parse().expect("peer address"))
        .collect();

    let window = Duration::from_secs_f64(args.window_s);
    let rank = args.rank;
    let linger = move |out: &RankOut| {
        report(args, out);
        child::line(format_args!("DONE"));
        // Keep serving the peer until the whole fleet is done.
        let _ = stdin.recv();
    };
    match args.workload.as_str() {
        "cluster_kv" => {
            let p = kv_params(args.seed, args.window_s);
            let ops = kv::stream(&p, rank as usize);
            dsm_core::run_cluster_node(
                &config(KV_KEYS),
                NodeId(rank),
                sock,
                peers,
                |d| {
                    sys::pin_to(args.app_cpu);
                    kv_program(d, &ops, window, args.traced)
                },
                linger,
            );
        }
        "cluster_pages" => {
            let touched = touched_pages(args.quick);
            dsm_core::run_cluster_node(
                &config(PAGES),
                NodeId(rank),
                sock,
                peers,
                |d| {
                    sys::pin_to(args.app_cpu);
                    pages_program(d, touched, args.seed, window, args.traced)
                },
                linger,
            );
        }
        other => panic!("not a cluster workload: {other}"),
    }
}

/// Accesses slower than this took a fault.
const SLOW_ACCESS_NS: u64 = 100_000;

fn report(args: &ChildArgs, out: &RankOut) {
    child::metric("ops", out.ops as f64);
    child::metric("wall_s", out.wall_s);
    child::metric("bad", out.bad as f64);
    child::result(args.rank as usize, out.digest);
    child::samples("op_ns", &out.op_ns);
    child::samples("read_fault_ns", &out.read_fault_ns);
    child::samples("write_fault_ns", &out.write_fault_ns);
    if args.traced {
        let spans = &out.spans;
        let mut leaves = 0.0;
        for call in Call::LEAVES {
            let s = trace::total_s(spans, call);
            leaves += s;
            child::metric(&format!("span.{}_s", call.name()), s);
        }
        // Self time of the loop: the root span less everything it calls.
        child::metric("span.app_s", trace::total_s(spans, Call::Root) - leaves);
        child::samples(
            "acquire_ns",
            &trace::durations_ns(spans, Call::Acquire, false),
        );
        child::samples(
            "barrier_ns",
            &trace::durations_ns(spans, Call::Barrier, false),
        );
        let accesses = spans
            .iter()
            .filter(|s| matches!(s.call, Call::Read | Call::Write));
        child::metric("accesses", accesses.clone().count() as f64);
        child::metric(
            "slow_accesses",
            accesses.filter(|s| s.dur_ns > SLOW_ACCESS_NS).count() as f64,
        );
        if let Some(path) = &args.trace_out {
            let pid = spec::trace_pid(&args.workload, args.rank);
            trace::write_fragment(path, pid, &args.workload, &[(0, spans)])
                .expect("write trace fragment");
        }
    }
    child::metric("peak_rss_mb", sys::peak_rss_mb());
}
