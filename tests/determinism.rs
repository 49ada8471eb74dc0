//! Cross-protocol determinism: the same seed must give bit-identical
//! runs — same results, same final memory image, same virtual
//! completion time, same per-kind message table — for every protocol,
//! and the zero-rendezvous hit fast path must be observationally
//! identical to the rendezvous-per-access slow path.
//!
//! Two workloads with different sharing patterns: red-black SOR
//! (neighbor sharing, barriers) and the master–worker task queue
//! (lock-bound mutual exclusion with polling).

use dsm_apps::{sor, taskqueue};
use dsm_core::{
    CostModel, Dsm, DsmConfig, Dur, GlobalAddr, NetStats, ProtocolKind, RunResult, SimTime,
};

const NODES: u32 = 3;

/// What a run leaves behind: per-node results (node 0's includes its
/// view of the whole heap after global quiescence), the virtual
/// completion time, the full traffic table — and the simulator's own
/// counters (per-node finish times, kernel events, `Go` grants), which
/// two runs down the same path must also agree on, whichever OS
/// threads happened to execute the event loop.
#[derive(Debug, PartialEq)]
struct Trace<V> {
    results: Vec<(V, Vec<u8>)>,
    end_time: SimTime,
    stats: NetStats,
    finish_times: Vec<SimTime>,
    events: u64,
    rendezvous: u64,
}

impl<V> Trace<V> {
    fn of(res: RunResult<(V, Vec<u8>)>) -> Self {
        Trace {
            results: res.results,
            end_time: res.end_time,
            stats: res.stats,
            finish_times: res.finish_times,
            events: res.events,
            rendezvous: res.rendezvous,
        }
    }

    /// The application-visible part: what must also match between two
    /// *different* paths to the same answer (fast vs slow hits), which
    /// legitimately differ in events and grants.
    fn outcome(&self) -> (&[(V, Vec<u8>)], SimTime, &NetStats) {
        (&self.results, self.end_time, &self.stats)
    }
}

/// Delivery jitter on, so determinism covers the kernel's PRNG too.
fn model() -> CostModel {
    CostModel::lan_1992().with_jitter(Dur::micros(50), 42)
}

/// Barrier, then node 0 reads back the entire heap.
fn quiesce_and_image(dsm: &Dsm<'_>, heap: usize) -> Vec<u8> {
    dsm.barrier(7);
    let image = if dsm.id().0 == 0 {
        dsm.read_bytes(GlobalAddr(0), heap)
    } else {
        Vec::new()
    };
    dsm.barrier(8);
    image
}

fn run_sor(proto: ProtocolKind, fast_path: bool) -> Trace<u64> {
    run_sor_gc(proto, fast_path, true)
}

fn run_sor_gc(proto: ProtocolKind, fast_path: bool, lrc_gc: bool) -> Trace<u64> {
    let p = sor::SorParams {
        n: 16,
        iters: 2,
        omega: 1.25,
    };
    let heap = p.heap_bytes();
    let cfg = DsmConfig::new(NODES, proto)
        .heap_bytes(heap)
        .model(model())
        .fast_path(fast_path)
        .lrc_gc(lrc_gc);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let sum = sor::run(dsm, &p);
        (sum.to_bits(), quiesce_and_image(dsm, heap))
    });
    Trace::of(res)
}

fn run_taskqueue(proto: ProtocolKind, fast_path: bool) -> Trace<(u64, u64, u64)> {
    run_taskqueue_gc(proto, fast_path, true)
}

fn run_taskqueue_gc(proto: ProtocolKind, fast_path: bool, lrc_gc: bool) -> Trace<(u64, u64, u64)> {
    let p = taskqueue::TaskQueueParams {
        tasks: 8,
        task_time: Dur::millis(2),
        produce_time: Dur::micros(50),
        poll: Dur::micros(500),
    };
    let heap = p.heap_bytes();
    let (lock, addr, len) = p.binding();
    let cfg = DsmConfig::new(NODES, proto)
        .heap_bytes(heap)
        .model(model())
        .fast_path(fast_path)
        .lrc_gc(lrc_gc)
        .bind(lock, addr, len);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let r = taskqueue::run(dsm, &p);
        (
            (r.executed, r.id_sum, r.id_xor),
            quiesce_and_image(dsm, heap),
        )
    });
    Trace::of(res)
}

#[test]
fn sor_same_seed_same_trace_every_protocol() {
    for proto in ProtocolKind::EVERY {
        let a = run_sor(proto, true);
        let b = run_sor(proto, true);
        assert_eq!(a, b, "{proto}: same-seed SOR runs diverged");
    }
}

#[test]
fn taskqueue_same_seed_same_trace_every_protocol() {
    for proto in ProtocolKind::EVERY {
        let a = run_taskqueue(proto, true);
        let b = run_taskqueue(proto, true);
        assert_eq!(a, b, "{proto}: same-seed taskqueue runs diverged");
    }
}

/// The fast path must change nothing observable: not the outputs, not
/// the virtual times, not a single message in the traffic table.
#[test]
fn sor_fast_path_matches_slow_path() {
    for proto in ProtocolKind::EVERY {
        let fast = run_sor(proto, true);
        let slow = run_sor(proto, false);
        assert_eq!(
            fast.outcome(),
            slow.outcome(),
            "{proto}: SOR fast path diverged from slow path"
        );
    }
}

#[test]
fn taskqueue_fast_path_matches_slow_path() {
    for proto in ProtocolKind::EVERY {
        let fast = run_taskqueue(proto, true);
        let slow = run_taskqueue(proto, false);
        assert_eq!(
            fast.outcome(),
            slow.outcome(),
            "{proto}: taskqueue fast path diverged from slow path"
        );
    }
}

/// LRC interval GC must be invisible to the application: same seed, GC
/// on vs off, every protocol — bit-identical per-node results and final
/// memory images. Only outputs are compared: with GC the epoch's diffs
/// travel on barrier messages instead of lazy diff fetches, so timing
/// and the traffic table legitimately differ (for LRC; for every other
/// protocol the knob must be completely inert, which the same assertion
/// proves for free).
#[test]
fn sor_outputs_identical_gc_on_and_off() {
    for proto in ProtocolKind::EVERY {
        let on = run_sor_gc(proto, true, true);
        let off = run_sor_gc(proto, true, false);
        assert_eq!(
            on.results, off.results,
            "{proto}: SOR outputs differ between GC on and off"
        );
        if proto != ProtocolKind::Lrc {
            assert_eq!(on, off, "{proto}: lrc_gc knob must be inert");
        }
    }
}

#[test]
fn taskqueue_outputs_identical_gc_on_and_off() {
    for proto in ProtocolKind::EVERY {
        let on = run_taskqueue_gc(proto, true, true);
        let off = run_taskqueue_gc(proto, true, false);
        assert_eq!(
            on.results, off.results,
            "{proto}: taskqueue outputs differ between GC on and off"
        );
        if proto != ProtocolKind::Lrc {
            assert_eq!(on, off, "{proto}: lrc_gc knob must be inert");
        }
    }
}

/// A program that returns while other nodes still have events queued
/// must pass the floor on: the event loop runs on program threads, so
/// a finisher that kept it (or dropped it) would wedge everyone behind
/// it. Node 0 returns at once, node `i` takes `i` rounds of a remote
/// write, some compute and a read of node 0's page — so programs finish
/// at different times with traffic still in flight.
#[test]
fn early_finisher_hands_the_floor_on() {
    const PAGE: usize = 256;
    for nodes in [1u32, 2, 8] {
        let cfg = DsmConfig::new(nodes, ProtocolKind::IvyFixed)
            .heap_bytes(PAGE * nodes as usize)
            .page_size(PAGE)
            .model(model());
        let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
            let me = dsm.id().0 as u64;
            let next = (me + 1) % nodes as u64;
            for round in 0..me {
                dsm.write_u64(GlobalAddr(PAGE * next as usize), round);
                dsm.compute(Dur::micros(100));
                dsm.read_u64(GlobalAddr(0));
            }
            me
        });
        assert_eq!(res.finish_times[0], SimTime::ZERO, "nodes={nodes}");
        assert!(
            res.finish_times[1..].iter().all(|&t| t > SimTime::ZERO),
            "nodes={nodes}: every other program should still be running: {:?}",
            res.finish_times
        );
        assert_eq!(res.results, (0..nodes as u64).collect::<Vec<_>>());
        // Every program got the floor at least once and the root got
        // it back.
        assert!(res.handoffs > nodes as u64, "nodes={nodes}");
    }
}
