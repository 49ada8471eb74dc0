//! The batched multi-page fault pipeline, end to end.
//!
//! Contracts under test:
//! * depth 1 is bit-identical to a default (unbatched) configuration
//!   and never puts a `Batch` envelope on the wire;
//! * application results are identical at every depth, for every
//!   protocol, with and without read-ahead hints;
//! * same-seed runs are reproducible at every depth;
//! * on a streaming workload, depth 8 beats depth 1 on completion time
//!   and rendezvous count without sending more messages;
//! * the fault queue drains before writes and sync ops run (a write or
//!   barrier immediately after a hinted read is safe), and candidate
//!   windows far larger than the depth are clamped;
//! * batching interoperates with the reliable transport on a lossy
//!   network: 20% drop changes nothing observable.

use dsm_core::{
    CostModel, Dsm, DsmConfig, FaultPlan, GlobalAddr, NetStats, Placement, ProtocolKind, SimTime,
};

const NODES: u32 = 3;
const PAGE: usize = 256;
/// Four pages per node.
const HEAP: usize = NODES as usize * 4 * PAGE;

#[derive(Debug, PartialEq)]
struct Trace {
    results: Vec<u64>,
    end_time: SimTime,
    rendezvous: u64,
    stats: NetStats,
}

fn cfg(proto: ProtocolKind, depth: usize) -> DsmConfig {
    DsmConfig::new(NODES, proto)
        .heap_bytes(HEAP)
        .page_size(PAGE)
        .placement(Placement::Block)
        .model(CostModel::lan_1992())
        .batch_depth(depth)
}

/// Each node fills its block of the heap, then every node streams the
/// whole heap through a declared read-ahead window and sums it.
fn streaming(dsm: &Dsm<'_>) -> u64 {
    let me = dsm.id().0 as usize;
    let slice = HEAP / NODES as usize;
    let base = me * slice;
    for off in (0..slice).step_by(8) {
        dsm.write_u64(GlobalAddr(base + off), (base + off) as u64 + 1);
    }
    dsm.barrier(0);
    let mut sum = 0u64;
    {
        let _window = dsm.prefetch_window(GlobalAddr(0), HEAP);
        for off in (0..HEAP).step_by(8) {
            sum = sum.wrapping_add(dsm.read_u64(GlobalAddr(off)));
        }
    }
    dsm.barrier(1);
    sum
}

fn run_streaming(c: &DsmConfig) -> Trace {
    let res = dsm_core::run_dsm(c, streaming);
    Trace {
        results: res.results,
        end_time: res.end_time,
        rendezvous: res.rendezvous,
        stats: res.stats,
    }
}

fn expected_sum() -> u64 {
    (0..HEAP)
        .step_by(8)
        .fold(0u64, |s, off| s.wrapping_add(off as u64 + 1))
}

#[test]
fn depth1_is_bit_identical_to_default_and_batch_free() {
    for proto in ProtocolKind::EVERY {
        let default = run_streaming(&cfg(proto, 1));
        // Builder left at its default (depth 1) — a config that never
        // heard of the pipeline.
        let untouched = {
            let mut c = cfg(proto, 1);
            c.batch_depth = 1;
            run_streaming(&c)
        };
        assert_eq!(default, untouched, "{proto}: depth-1 diverged");
        assert_eq!(
            default.stats.kind("Batch").count,
            0,
            "{proto}: depth-1 run put a Batch envelope on the wire"
        );
    }
}

#[test]
fn results_identical_at_every_depth_every_protocol() {
    let want = expected_sum();
    for proto in ProtocolKind::EVERY {
        for depth in [1usize, 2, 4, 8] {
            let t = run_streaming(&cfg(proto, depth));
            for (i, &got) in t.results.iter().enumerate() {
                assert_eq!(got, want, "{proto} depth {depth} node {i}");
            }
        }
    }
}

#[test]
fn same_seed_reproducible_at_every_depth() {
    for proto in [
        ProtocolKind::IvyDynamic,
        ProtocolKind::Migrate,
        ProtocolKind::Lrc,
    ] {
        for depth in [2usize, 4, 8] {
            let a = run_streaming(&cfg(proto, depth));
            let b = run_streaming(&cfg(proto, depth));
            assert_eq!(a, b, "{proto} depth {depth}: same-seed runs diverged");
        }
    }
}

/// The perf claim the pipeline exists for: on a streaming read pattern,
/// deeper batches complete sooner, rendezvous with the kernel less, and
/// send no more messages (batch envelopes replace several bare ones).
#[test]
fn depth8_beats_depth1_on_streaming_reads() {
    for proto in [
        ProtocolKind::IvyDynamic,
        ProtocolKind::IvyFixed,
        ProtocolKind::Lrc,
    ] {
        let d1 = run_streaming(&cfg(proto, 1));
        let d8 = run_streaming(&cfg(proto, 8));
        assert!(
            d8.end_time < d1.end_time,
            "{proto}: depth 8 not faster ({} vs {})",
            d8.end_time,
            d1.end_time
        );
        assert!(
            d8.stats.total_msgs() <= d1.stats.total_msgs(),
            "{proto}: depth 8 sent more messages ({} vs {})",
            d8.stats.total_msgs(),
            d1.stats.total_msgs()
        );
        assert!(
            d8.rendezvous < d1.rendezvous,
            "{proto}: depth 8 did not cut rendezvous ({} vs {})",
            d8.rendezvous,
            d1.rendezvous
        );
        assert!(
            d8.stats.kind("Batch").count > 0,
            "{proto}: depth 8 never formed a batch"
        );
    }
}

/// Protocols whose rows say `max_batch_depth: 1` (prefetching harms
/// them); the runtime clamps, so a configured
/// depth 8 is bit-identical to depth 1 — not merely equivalent.
#[test]
fn per_protocol_depth_clamp_is_bit_identical() {
    let clamped = ProtocolKind::EVERY
        .into_iter()
        .filter(|p| p.facts().max_batch_depth == 1);
    for proto in clamped {
        let d1 = run_streaming(&cfg(proto, 1));
        let d8 = run_streaming(&cfg(proto, 8));
        assert_eq!(d1, d8, "{proto} must clamp batch depth to 1");
        assert_eq!(d8.stats.kind("Batch").count, 0, "{proto} must never batch");
    }
}

/// Writes and sync ops after a hinted read: the fault queue drains
/// before the read op completes, so a write to a just-prefetched page
/// and an immediate barrier are both safe, at every depth.
#[test]
fn queue_drains_before_writes_and_sync() {
    for proto in ProtocolKind::EVERY {
        for depth in [1usize, 4, 8] {
            let c = cfg(proto, depth);
            let res = dsm_core::run_dsm(&c, |dsm| {
                let me = dsm.id().0 as usize;
                let slice = HEAP / NODES as usize;
                let base = me * slice;
                for off in (0..slice).step_by(8) {
                    dsm.write_u64(GlobalAddr(base + off), 7);
                }
                dsm.barrier(0);
                // Hint the neighbor's whole block, read only its first
                // word (prefetches queue for the rest of the window)...
                let peer = ((me + 1) % NODES as usize) * slice;
                let _window = dsm.prefetch_window(GlobalAddr(peer), slice);
                let first = dsm.read_u64(GlobalAddr(peer));
                // ...then immediately write into a page the queue just
                // prefetched, and hit a barrier with no intervening
                // reads.
                dsm.write_u64(GlobalAddr(peer + PAGE), 100 + me as u64);
                dsm.barrier(1);
                let wrote = dsm.read_u64(GlobalAddr(peer + PAGE));
                dsm.barrier(2);
                (first, wrote)
            });
            for (i, &(first, wrote)) in res.results.iter().enumerate() {
                assert_eq!(first, 7, "{proto} depth {depth} node {i}: stale read");
                assert_eq!(
                    wrote,
                    100 + i as u64,
                    "{proto} depth {depth} node {i}: write lost"
                );
            }
        }
    }
}

/// A hint window far wider than any batch cap must clamp, not
/// overflow: with adaptive depth the window sizes the batch, clamped
/// by `MAX_BATCH_DEPTH` and the protocol's own limit — a whole-heap
/// window on a depth-4 config still gives correct sums.
#[test]
fn oversized_hint_window_clamps_to_depth() {
    let want = expected_sum();
    for proto in [ProtocolKind::IvyFixed, ProtocolKind::Lrc] {
        let c = cfg(proto, 4);
        let res = dsm_core::run_dsm(&c, |dsm| {
            let me = dsm.id().0 as usize;
            let slice = HEAP / NODES as usize;
            for off in (0..slice).step_by(8) {
                dsm.write_u64(GlobalAddr(me * slice + off), (me * slice + off) as u64 + 1);
            }
            dsm.barrier(0);
            // Window covers the entire heap — three times the depth.
            let _window = dsm.prefetch_window(GlobalAddr(0), HEAP);
            let mut sum = 0u64;
            for off in (0..HEAP).step_by(8) {
                sum = sum.wrapping_add(dsm.read_u64(GlobalAddr(off)));
            }
            dsm.barrier(1);
            sum
        });
        for (i, &got) in res.results.iter().enumerate() {
            assert_eq!(got, want, "{proto} node {i}");
        }
    }
}

/// Batching over the reliable transport on a lossy network: 20% drop,
/// 10% duplication. Results must match the fault-free run, and faulty
/// runs must be reproducible, at depth 1 and depth 4.
#[test]
fn lossy_network_interop_with_batching() {
    for proto in ProtocolKind::EVERY {
        for depth in [1usize, 4] {
            let clean = run_streaming(&cfg(proto, depth));
            let faulty =
                || run_streaming(&cfg(proto, depth).faults(FaultPlan::lossy(0.2, 0.1, 1234)));
            let a = faulty();
            assert_eq!(
                a.results, clean.results,
                "{proto} depth {depth}: lossy run changed results"
            );
            assert_eq!(a, faulty(), "{proto} depth {depth}: lossy runs diverged");
        }
    }
}
