//! LRC causal-metadata residency: interval GC must bound the resident
//! log to one epoch, where the non-GC scheme's log grows with every
//! barrier crossed.
//!
//! The workload writes an *identical* pattern every round (only the
//! values vary), so each barrier epoch carries the same metadata:
//! under GC the peak footprint is flat in the number of rounds, while
//! the non-GC interval log accumulates linearly. SOR would not do
//! here — its relaxation wavefront makes early epochs' diffs grow, so
//! a rising peak would be the application's doing, not the log's.
//!
//! Metadata footprints come from the run's trace: each node's LRC
//! `Resident` records (sampled at sync points) and `Log` records (where
//! its interval log changed) carry the log's length and the resident
//! bytes — modeled wire bytes of interval records + retained diffs +
//! buffered flushes + unapplied notices.

use dsm_core::trace::{Kind, Rec};
use dsm_core::{CostModel, Dsm, DsmConfig, GlobalAddr, ProtocolKind};
use std::cell::RefCell;
use std::rc::Rc;

const NODES: u32 = 4;
const PAGE: usize = 1024;

/// Run `program` and fold each node's LRC records through a closure:
/// where its log ended (the last record's log records and resident
/// bytes) and its peak (the largest `Resident` sample). Returns each
/// of the three maxed over nodes: (log records, resident, peak).
fn metadata(cfg: &DsmConfig, program: impl Fn(&Dsm<'_>) + Send + Sync) -> (u64, u64, u64) {
    let nodes = Rc::new(RefCell::new(vec![(0, 0, 0); cfg.nnodes as usize]));
    let folded = Rc::clone(&nodes);
    let fold = move |r: &Rec| {
        let n = &mut folded.borrow_mut()[r.node as usize];
        match r.kind {
            Kind::Resident => *n = (r.unit, r.bytes, n.2.max(r.bytes)),
            Kind::Log => (n.0, n.1) = (r.unit, r.bytes),
            _ => {}
        }
    };
    drop(dsm_core::run_traced(cfg, program, fold));
    let nodes = nodes.borrow();
    let max = |field: fn(&(u64, u64, u64)) -> u64| nodes.iter().map(field).max().unwrap();
    (max(|n| n.0), max(|n| n.1), max(|n| n.2))
}

/// Each node owns two pages; every round it writes a fixed set of
/// words into its own first page and into the *next* node's second
/// page (remotely homed, so flushes, notices, and invalidations all
/// flow), then crosses a barrier. Returns (peak, final) resident
/// metadata bytes, maxed over nodes.
fn resident_after(rounds: usize, gc: bool) -> (u64, u64) {
    let cfg = DsmConfig::new(NODES, ProtocolKind::Lrc)
        .heap_bytes(2 * PAGE * NODES as usize)
        .page_size(PAGE)
        .lrc_gc(gc);
    let (_, resident, peak) = metadata(&cfg, move |dsm: &Dsm<'_>| {
        let me = dsm.id().0 as usize;
        let neigh = (me + 1) % NODES as usize;
        for r in 0..rounds {
            for w in 0..8 {
                dsm.write_u64(GlobalAddr(2 * PAGE * me + 64 * w), (r * 31 + w) as u64);
                dsm.write_u64(
                    GlobalAddr(2 * PAGE * neigh + PAGE + 64 * w),
                    (r * 37 + w) as u64,
                );
            }
            dsm.barrier(0);
        }
    });
    (peak, resident)
}

/// With GC, quadrupling the barrier count must not grow the peak
/// resident metadata: every barrier retires the epoch, so the peak is
/// one epoch's worth regardless of run length. Without GC the log
/// accumulates across barriers and the same scaling multiplies it.
#[test]
fn gc_bounds_resident_metadata_across_barriers() {
    let (short_gc, _) = resident_after(4, true);
    let (long_gc, _) = resident_after(16, true);
    assert!(short_gc > 0, "the workload must generate causal metadata");
    // Epochs overlap transiently — a fast neighbor's next-epoch flush
    // can reach a home before the home's own release — so allow one
    // extra epoch of slack; what must NOT appear is growth linear in
    // the number of rounds.
    assert!(
        long_gc <= short_gc * 2,
        "GC peak grew with barrier count: {long_gc} after 16 rounds vs {short_gc} after 4"
    );

    let (short_nogc, _) = resident_after(4, false);
    let (long_nogc, _) = resident_after(16, false);
    assert!(
        long_nogc >= short_nogc * 2,
        "expected the non-GC log to keep growing across barriers \
         ({short_nogc} -> {long_nogc}); did retirement leak into the non-GC path?"
    );
    assert!(
        long_gc < long_nogc,
        "GC peak ({long_gc}) must undercut the unbounded log ({long_nogc})"
    );
}

/// After the final barrier, a GC node holds no causal metadata at all —
/// the whole log, diff cache, flush buffer, and notice table retire.
/// The non-GC node still drags the full run's records.
#[test]
fn gc_retires_everything_no_gc_retains() {
    let (_, final_gc) = resident_after(8, true);
    let (_, final_nogc) = resident_after(8, false);
    assert_eq!(final_gc, 0, "metadata survived a GC barrier");
    assert!(final_nogc > 0, "non-GC run ended with an empty log?");
}

/// A lock-only phase: every node increments one shared counter per
/// round under lock 0 and nobody crosses a barrier. Returns, maxed over
/// nodes, (log records, resident bytes, peak resident bytes).
fn lock_only_metadata(rounds: usize, gc: bool) -> (u64, u64, u64) {
    let cfg = DsmConfig::new(NODES, ProtocolKind::Lrc)
        .model(CostModel::lan_1992())
        .heap_bytes(2 * PAGE * NODES as usize)
        .page_size(PAGE)
        .lrc_gc(gc);
    metadata(&cfg, move |dsm: &Dsm<'_>| {
        let me = dsm.id().0 as usize;
        for _ in 0..rounds {
            dsm.with_lock(0, |d| {
                let v = d.read_u64(GlobalAddr(0));
                d.write_u64(GlobalAddr(0), v + 1);
                // A second page per interval, a different one per node.
                d.write_u64(GlobalAddr(PAGE * (1 + me)), v);
            });
        }
    })
}

/// Interval GC fires at barriers only, so between barriers the causal
/// metadata is retained whole, GC or not: every interval anyone closed
/// stays in the log, and the footprint grows with the phase's length.
/// The values are what the end-of-run gauges read before residency
/// became a running count, and before the trace replaced the gauges —
/// the count and the records must stay equal to the byte.
#[test]
fn lock_only_phase_retains_every_interval_and_the_records_say_so() {
    for gc in [true, false] {
        let short = lock_only_metadata(25, gc);
        let long = lock_only_metadata(100, gc);
        assert_eq!(short, (100, 4_474, 4_448), "25 rounds, gc={gc}");
        assert_eq!(long, (400, 17_826, 17_800), "100 rounds, gc={gc}");
        assert!(long.1 >= 3 * short.1, "a lock-only log grows with its run");
    }
}
