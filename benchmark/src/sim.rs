//! The four simulator workloads, child side: build the inputs, run one
//! fixed-size `run_dsm` on a pinned CPU, report counts and results.

use crate::child::{self, ChildArgs};
use crate::hostref;
use crate::spec;
use crate::stats;
use crate::sys;
use crate::trace::{self, Call, Recorder, Span, NO_OP};
use dsm_apps::kv::{self, KvOp, KvParams};
use dsm_apps::matmul::{self, MatmulParams};
use dsm_apps::sor::{self, SorParams};
use dsm_apps::util::block_range;
use dsm_core::{CostModel, Dsm, DsmConfig, GlobalAddr, ProtocolKind, RunResult};
use std::time::Instant;

pub const KV_NODES: u32 = 8;
const KV_PAGE: usize = 1024;
const MATMUL_NODES: u32 = 8;
/// One row of a matrix is one 4 KiB page; B (2 MiB) is read whole for
/// every row of A.
pub const MATMUL_N: usize = 512;

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// `--quick`: well under a second.
    Quick,
    /// The untimed warm-up every child runs first, so that code pages,
    /// allocator arenas and lazy statics are in place before READY.
    Warm,
}

impl Size {
    pub fn of(quick: bool) -> Size {
        if quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

/// The E21 board; the stream seed is the benchmark's `--seed`.
pub fn kv_params(workload: &str, seed: u64, size: Size) -> KvParams {
    let ops_per_node = match (workload, size) {
        ("sim_kv_ivy", Size::Full) => 4000,
        // LRC's cost grows faster than its run length between barriers.
        (_, Size::Full) => 1200,
        ("sim_kv_ivy", Size::Quick) => 400,
        _ => 200,
    };
    KvParams {
        keys: 512,
        ops_per_node,
        read_pct: 80,
        skew: 0.99,
        stripes: 16,
        seed,
    }
}

/// `matmul` fixes its own inputs: the seed has nothing to choose.
pub fn matmul_params(size: Size) -> MatmulParams {
    MatmulParams {
        n: if size == Size::Full { MATMUL_N } else { 96 },
    }
}

/// Nodes and parameters of `sor`: one interior row per node, 512 wide
/// except to warm up. Like `matmul`, the kernel fixes its own inputs.
pub fn sor_params(size: Size) -> (u32, SorParams) {
    let nodes = if size == Size::Warm { 32 } else { 512 };
    let p = SorParams {
        n: nodes as usize + 2,
        iters: if size == Size::Full { 4 } else { 1 },
        omega: 1.25,
    };
    (nodes, p)
}

/// Order-independent digest of a KV table, as `dsm_apps::kv` computes
/// it (its own is private).
pub fn kv_digest(vals: impl Iterator<Item = u64>) -> u64 {
    vals.enumerate().fold(0u64, |d, (k, v)| {
        d.wrapping_add(v.rotate_left((k % 63) as u32))
    })
}

/// What each node's program hands back.
struct NodeOut {
    /// The node's result, as bits (a digest, or an `f64` block sum).
    bits: u64,
    spans: Vec<Span>,
}

/// The KV loop of `dsm_apps::kv::run`, owned here so that every call
/// into the DSM can carry a span and the stream is generated outside
/// the timed section.
fn kv_program(dsm: &Dsm<'_>, p: &KvParams, ops: &[KvOp], traced: bool, epoch: Instant) -> NodeOut {
    let mut rec = Recorder::new(traced, epoch);
    let virt = || dsm.now().as_nanos();
    let root = rec.begin(virt);
    rec.call(Call::Barrier, NO_OP, virt, || dsm.barrier(0));
    let mut read_sink = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let i = i as u32;
        let lock = (op.key % p.stripes) as u32;
        let addr = GlobalAddr(op.key * 8);
        let mark = rec.begin(virt);
        rec.call(Call::Acquire, i, virt, || dsm.acquire(lock));
        let v = rec.call(Call::Read, i, virt, || dsm.read_u64(addr));
        match op.delta {
            None => read_sink ^= v,
            Some(delta) => rec.call(Call::Write, i, virt, || {
                dsm.write_u64(addr, v.wrapping_add(delta))
            }),
        }
        rec.call(Call::Release, i, virt, || dsm.release(lock));
        rec.end(Call::Op, i, mark, virt);
    }
    rec.call(Call::Barrier, NO_OP, virt, || dsm.barrier(1));
    std::hint::black_box(read_sink);
    let bits = kv_digest((0..p.keys).map(|k| dsm.read_u64(GlobalAddr(k * 8))));
    rec.end(Call::Root, NO_OP, root, virt);
    NodeOut {
        bits,
        spans: rec.spans,
    }
}

/// `matmul` and `sor` are called whole: a root span and counts only.
fn whole_program(
    dsm: &Dsm<'_>,
    traced: bool,
    epoch: Instant,
    run: impl FnOnce() -> f64,
) -> NodeOut {
    let mut rec = Recorder::new(traced, epoch);
    let virt = || dsm.now().as_nanos();
    let root = rec.begin(virt);
    let sum = run();
    rec.end(Call::Root, NO_OP, root, virt);
    NodeOut {
        bits: sum.to_bits(),
        spans: rec.spans,
    }
}

/// Work the timed section does that the ledger can price from outside.
struct Work {
    ops: u64,
    /// 8-byte accesses issued through `Dsm::read_u64` / `write_u64`.
    word_accesses: u64,
    /// Bytes moved by bulk `read_f64s` / `write_f64s` calls.
    bulk_bytes: u64,
}

/// Pinned down rather than left to `DSM_NET` / `DSM_WORKERS`: the
/// results must not depend on the caller's environment. One worker,
/// because the child has one CPU.
fn config(nodes: u32, proto: ProtocolKind) -> DsmConfig {
    DsmConfig::new(nodes, proto)
        .model(CostModel::lan_1992())
        .workers(1)
        .max_events(u64::MAX)
}

/// The timed section is the whole `run_dsm` call, node construction
/// included; READY (when `announce`d) opens it.
fn timed<F>(cfg: &DsmConfig, announce: bool, program: F) -> (RunResult<NodeOut>, f64)
where
    F: Fn(&Dsm<'_>) -> NodeOut + Send + Sync,
{
    if announce {
        child::line(format_args!("READY"));
    }
    let t = Instant::now();
    let res = dsm_core::run_dsm(cfg, program);
    (res, t.elapsed().as_secs_f64())
}

/// Build the inputs of `workload` at `size` and run it once. With
/// `announce`, READY goes out between the two, so that input
/// generation is set-up and the `run_dsm` call is the timed section.
fn run_once(
    workload: &str,
    seed: u64,
    size: Size,
    traced: bool,
    epoch: Instant,
    announce: bool,
) -> (RunResult<NodeOut>, f64, Work) {
    match workload {
        "sim_kv_ivy" | "sim_kv_lrc" => {
            let p = kv_params(workload, seed, size);
            let proto = if workload == "sim_kv_ivy" {
                ProtocolKind::IvyFixed
            } else {
                ProtocolKind::Lrc
            };
            let streams: Vec<Vec<KvOp>> =
                (0..KV_NODES as usize).map(|i| kv::stream(&p, i)).collect();
            let writes = streams
                .iter()
                .flatten()
                .filter(|o| o.delta.is_some())
                .count();
            let ops = (KV_NODES as usize * p.ops_per_node) as u64;
            let cfg = config(KV_NODES, proto)
                .heap_bytes(p.heap_bytes())
                .page_size(KV_PAGE);
            let (res, wall_s) = timed(&cfg, announce, |dsm| {
                kv_program(dsm, &p, &streams[dsm.id().index()], traced, epoch)
            });
            let work = Work {
                ops,
                word_accesses: ops + writes as u64 + (KV_NODES as usize * p.keys) as u64,
                bulk_bytes: 0,
            };
            (res, wall_s, work)
        }
        "sim_matmul_hits" => {
            let p = matmul_params(size);
            let n = p.n as u64;
            let cfg = config(MATMUL_NODES, ProtocolKind::IvyFixed).heap_bytes(p.heap_bytes());
            let (res, wall_s) = timed(&cfg, announce, |dsm| {
                whole_program(dsm, traced, epoch, || matmul::run(dsm, &p))
            });
            // One operation is one B-row read-and-accumulate: `run`
            // skips the zero entries of A, one residue in eleven.
            let ops = (0..p.n * p.n)
                .filter(|i| (i / p.n * 7 + i % p.n * 3) % 11 != 5)
                .count() as u64;
            let work = Work {
                ops,
                word_accesses: 0,
                // Rows of A and B written, A read, B read per op, C
                // written and read back.
                bulk_bytes: (5 * n + ops) * n * 8,
            };
            (res, wall_s, work)
        }
        "sim_sor_wide" => {
            let (nodes, p) = sor_params(size);
            let cfg = config(nodes, ProtocolKind::Lrc).heap_bytes(p.heap_bytes());
            let (res, wall_s) = timed(&cfg, announce, |dsm| {
                whole_program(dsm, traced, epoch, || sor::run(dsm, &p))
            });
            // One operation is one row relaxation (three row reads and
            // a row write).
            let rows = (p.n - 2) as u64;
            let ops = rows * 2 * p.iters as u64;
            let work = Work {
                ops,
                word_accesses: 0,
                // Every row written once to start and read once to
                // end, the two boundary rows written by node 0.
                bulk_bytes: (4 * ops + 2 * rows + 2) * p.n as u64 * 8,
            };
            (res, wall_s, work)
        }
        other => panic!("not a simulator workload: {other}"),
    }
}

pub fn run_child(args: &ChildArgs) {
    let epoch = Instant::now();
    let stdin = child::watch_stdin();
    // Only one simulated actor runs at a time; left to the scheduler,
    // every floor hand-off can become a cross-core wake-up.
    sys::pin_to(args.cpu);
    let w = args.workload.as_str();
    run_once(w, args.seed, Size::Warm, false, epoch, false);
    let size = Size::of(args.quick);
    // The host-speed reference brackets the timed section (and so is
    // part of the set-up the driver times: it subtracts `ref_pre_s`).
    let ref_pre_s = hostref::run();
    let (res, wall_s, work) = run_once(w, args.seed, size, args.traced, epoch, true);
    let ref_post_s = hostref::run();
    child::metric("ref_pre_s", ref_pre_s);
    child::metric("ref_post_s", ref_post_s);

    child::metric("ops", work.ops as f64);
    child::metric("wall_s", wall_s);
    child::metric("sim_wall_s", res.wall.as_secs_f64());
    child::metric("events", res.events as f64);
    child::metric("msgs", res.stats.total_msgs() as f64);
    child::metric("bytes", res.stats.total_bytes() as f64);
    child::metric("rendezvous", res.rendezvous as f64);
    child::metric("virt_completion_ms", res.end_time.as_millis_f64());
    child::metric("word_accesses", work.word_accesses as f64);
    child::metric("bulk_bytes", work.bulk_bytes as f64);
    for (node, out) in res.results.iter().enumerate() {
        child::result(node, out.bits);
    }
    if args.traced {
        report_spans(args, &res.results);
    }
    child::metric("peak_rss_mb", sys::peak_rss_mb());
    child::line(format_args!("DONE"));
    // Leave only when told to, so that the exit is the main thread's.
    let _ = stdin.recv();
}

/// Virtual-time latency per call kind (exact: `Dsm::now()` deltas),
/// and this process's trace fragment.
fn report_spans(args: &ChildArgs, nodes: &[NodeOut]) {
    let all: Vec<Span> = nodes.iter().flat_map(|n| n.spans.iter().copied()).collect();
    // Virtual time repeats exactly, so these need no sample-count rule.
    for (name, call, q) in [
        ("sync.acquire_virt_p50_us", Call::Acquire, 0.50),
        ("sync.acquire_virt_p99_us", Call::Acquire, 0.99),
        ("core.read_virt_p99_us", Call::Read, 0.99),
        ("core.write_virt_p99_us", Call::Write, 0.99),
        ("sync.barrier_virt_p50_us", Call::Barrier, 0.50),
    ] {
        let us: Vec<f64> = trace::durations_ns(&all, call, true)
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let value = if us.is_empty() {
            0.0
        } else {
            stats::quantile(&us, q)
        };
        child::metric(name, value);
    }
    if let Some(path) = &args.trace_out {
        let threads: Vec<(u32, &[Span])> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.spans.as_slice()))
            .collect();
        trace::write_fragment(
            path,
            spec::trace_pid(&args.workload, 0),
            &args.workload,
            &threads,
        )
        .expect("write trace fragment");
    }
}

/// Reference results, one per node, computed by the driver once per
/// pass and outside every timed section.
pub fn reference(workload: &str, seed: u64, quick: bool) -> Vec<u64> {
    let size = Size::of(quick);
    match workload {
        w @ ("sim_kv_ivy" | "sim_kv_lrc") => {
            let p = kv_params(w, seed, size);
            vec![kv::reference_digest(&p, KV_NODES as usize); KV_NODES as usize]
        }
        "sim_matmul_hits" => {
            let p = matmul_params(size);
            let c = matmul::reference(&p);
            (0..MATMUL_NODES as usize)
                .map(|node| {
                    let (lo, hi) = block_range(p.n, MATMUL_NODES as usize, node);
                    c[lo * p.n..hi * p.n].iter().sum::<f64>().to_bits()
                })
                .collect()
        }
        "sim_sor_wide" => {
            let (nodes, p) = sor_params(size);
            let grid = sor::reference(&p);
            (0..nodes as usize)
                .map(|node| {
                    let (lo, hi) = block_range(p.n - 2, nodes as usize, node);
                    grid[(lo + 1) * p.n..(hi + 1) * p.n]
                        .iter()
                        .sum::<f64>()
                        .to_bits()
                })
                .collect()
        }
        other => panic!("not a simulator workload: {other}"),
    }
}

/// Does a node's result match its reference? Digests exactly; block
/// sums within a relative tolerance, because the DSM run and the
/// sequential reference add the same terms in different orders.
pub fn result_matches(workload: &str, got: u64, want: u64) -> bool {
    if workload.starts_with("sim_kv") {
        return got == want;
    }
    let (got, want) = (f64::from_bits(got), f64::from_bits(want));
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}
