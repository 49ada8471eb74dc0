//! Fault-injection determinism and transparency: a lossy network must
//! change *nothing observable about the application* — only the price
//! paid to run on it.
//!
//! Two contracts, for every protocol:
//!
//! 1. **Determinism**: same seed + same `FaultPlan` ⇒ bit-identical
//!    runs — results, final memory image, virtual completion time, and
//!    the full traffic table including drop/dup/retransmit counters.
//! 2. **Transparency**: the app-visible outputs (per-node results and
//!    the quiesced heap image) of a lossy run equal the lossless run's
//!    at 5% and at 20% drop (duplication riding along). Virtual time
//!    and traffic legitimately differ — that's the measured overhead —
//!    but the answers may not.
//!
//! SOR is the workload: barrier-structured and data-race-free, so its
//! outputs are independent of message timing, which is exactly what
//! lets loss-induced delays stay invisible.

use dsm_apps::{matmul, sor};
use dsm_core::{
    CostModel, Dsm, DsmConfig, Dur, FaultPlan, GlobalAddr, NetStats, ProtocolKind, RunResult,
    SimTime,
};

const NODES: u32 = 3;

/// Every whole-`Trace` comparison below is between two runs down the
/// same path (same plan, same seed), so the simulator's own counters
/// ride along with the application-visible outputs.
#[derive(Debug, PartialEq)]
struct Trace {
    results: Vec<(u64, Vec<u8>)>,
    end_time: SimTime,
    stats: NetStats,
    finish_times: Vec<SimTime>,
    events: u64,
    rendezvous: u64,
}

impl Trace {
    fn of(res: RunResult<(u64, Vec<u8>)>) -> Self {
        Trace {
            results: res.results,
            end_time: res.end_time,
            stats: res.stats,
            finish_times: res.finish_times,
            events: res.events,
            rendezvous: res.rendezvous,
        }
    }
}

/// Jitter on as well, so the fault PRNG is exercised alongside (and
/// provably independent of) the jitter PRNG.
fn model(plan: FaultPlan) -> CostModel {
    CostModel::lan_1992()
        .with_jitter(Dur::micros(50), 42)
        .with_faults(plan)
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

fn run_sor(proto: ProtocolKind, plan: FaultPlan) -> Trace {
    let p = sor::SorParams {
        n: 16,
        iters: 2,
        omega: 1.25,
    };
    let heap = p.heap_bytes();
    let cfg = DsmConfig::new(NODES, proto)
        .heap_bytes(heap)
        .model(model(plan));
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let sum = sor::run(dsm, &p);
        (sum.to_bits(), quiesce_and_image(dsm, heap))
    });
    Trace::of(res)
}

/// The heavy plan the acceptance criteria name: 20% drop plus
/// duplication (and delay spikes for reorder pressure).
fn heavy() -> FaultPlan {
    FaultPlan::lossy(0.20, 0.10, 1234).with_spikes(0.2, Dur::millis(5))
}

/// The protocols whose SOR outputs cannot depend on message timing.
/// With 4 KiB pages several nodes' 128-byte rows share a page, so the
/// kernel has concurrent writers of distinct bytes of one page; where
/// the page is last-writer-wins, which rows survive is a matter of
/// timing — exactly what loss changes — and "lossy equals lossless" is
/// not a claim the protocol makes (it does hold at one row per page).
/// Such a row is left out through that fact, and says why; determinism
/// of *same-plan* runs is still asserted for every protocol.
fn timing_independent_on_sor() -> impl Iterator<Item = ProtocolKind> {
    ProtocolKind::every_that(|facts| facts.sub_page_writers)
}

#[test]
fn same_seed_same_fault_plan_is_bit_identical_every_protocol() {
    for proto in ProtocolKind::EVERY {
        let a = run_sor(proto, heavy());
        let b = run_sor(proto, heavy());
        assert_eq!(a, b, "{proto}: same-seed faulty runs diverged");
        assert!(
            a.stats.total_dropped() > 0,
            "{proto}: fault plan never fired — the test is vacuous"
        );
    }
}

#[test]
fn lossy_results_match_lossless_at_5_percent_drop() {
    for proto in timing_independent_on_sor() {
        let lossless = run_sor(proto, FaultPlan::NONE);
        let lossy = run_sor(proto, FaultPlan::lossy(0.05, 0.025, 77));
        assert_eq!(
            lossy.results, lossless.results,
            "{proto}: app output changed under 5% drop"
        );
    }
}

#[test]
fn lossy_results_match_lossless_at_20_percent_drop() {
    for proto in timing_independent_on_sor() {
        let lossless = run_sor(proto, FaultPlan::NONE);
        let lossy = run_sor(proto, heavy());
        assert_eq!(
            lossy.results, lossless.results,
            "{proto}: app output changed under 20% drop + dup + spikes"
        );
        assert!(
            lossy.stats.total_retransmits() > 0,
            "{proto}: heavy loss recovered without a single retransmit?"
        );
    }
}

/// Regression: LRC interval GC under release-delivery skew. Fault-
/// induced delays can hand one node its barrier release long before
/// another's arrives; the early node then faults on an epoch-evicted
/// page and fetches from a home that has not applied the epoch's
/// buffered flushes yet. The home must defer serving (epoch-tagged
/// `LrcPageReq`) or it hands out pre-epoch bytes — this failed as a
/// silent wrong-result before the deferral existed, and it needs more
/// nodes than the SOR tests above to open the skew window.
#[test]
fn lrc_gc_survives_release_skew_under_loss() {
    let p = matmul::MatmulParams { n: 48 };
    let heap = p.heap_bytes();
    let run = |plan: FaultPlan, gc: bool| {
        let cfg = DsmConfig::new(8, ProtocolKind::Lrc)
            .heap_bytes(heap)
            .model(model(plan))
            .lrc_gc(gc);
        dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
            let sum = matmul::run(dsm, &p);
            (sum.to_bits(), quiesce_and_image(dsm, heap))
        })
        .results
    };
    let lossless = run(FaultPlan::NONE, true);
    for seed in [9, 1234, 77] {
        let plan = FaultPlan::lossy(0.20, 0.10, seed).with_spikes(0.2, Dur::millis(5));
        assert_eq!(
            run(plan.clone(), true),
            lossless,
            "lrc gc: wrong result under loss with fault seed {seed}"
        );
    }
    assert_eq!(
        run(FaultPlan::NONE, false),
        lossless,
        "gc on/off disagree on the lossless matmul result"
    );
}

/// The object-granularity `obj` protocol under loss on its showcase
/// pointer-chase workload, which the SOR rows above (where it moves
/// pages like `entry`) do not reach: ownership
/// transfers, read replications, and lock-free barrier rounds must all
/// survive 20% drop + duplication + delay spikes with bit-identical
/// same-seed traces and unchanged application outputs.
#[test]
fn obj_is_deterministic_and_transparent_under_loss() {
    use dsm_apps::chase;
    let p = chase::ChaseParams {
        chain_len: 12,
        rounds: 3,
        think: Dur::micros(200),
    };
    let heap = p.heap_bytes(NODES as usize);
    let (h, chains) = chase::build_obj_chains(&p, NODES);
    let table = h.table();
    let run = |plan: FaultPlan| {
        let chains = chains.clone();
        let cfg = DsmConfig::new(NODES, ProtocolKind::Obj)
            .heap_bytes(heap)
            .model(model(plan))
            .objects(table.clone());
        let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
            let sum = chase::run_obj(dsm, &p, &chains);
            (sum, quiesce_and_image(dsm, heap))
        });
        Trace::of(res)
    };
    let lossless = run(FaultPlan::NONE);
    assert!(
        lossless.results.iter().all(|r| r.0 == p.expected()),
        "obj: chase computed the wrong answer"
    );
    let a = run(heavy());
    let b = run(heavy());
    assert_eq!(a, b, "obj: same-seed faulty runs diverged");
    assert!(
        a.stats.total_dropped() > 0,
        "obj: fault plan never fired — the test is vacuous"
    );
    assert!(
        a.stats.total_retransmits() > 0,
        "obj: heavy loss recovered without a single retransmit?"
    );
    assert_eq!(
        a.results, lossless.results,
        "obj: app output changed under 20% drop + dup + spikes"
    );
}

/// Different fault seeds give different fault patterns (the plan is
/// seeded, not hash-of-run): sanity check that determinism isn't
/// coming from the faults never firing or firing identically.
#[test]
fn different_fault_seeds_differ() {
    let a = run_sor(ProtocolKind::Lrc, FaultPlan::lossy(0.20, 0.10, 1));
    let b = run_sor(ProtocolKind::Lrc, FaultPlan::lossy(0.20, 0.10, 2));
    assert_eq!(
        a.results, b.results,
        "results must agree regardless of seed"
    );
    assert_ne!(
        (a.end_time, a.stats.total_dropped()),
        (b.end_time, b.stats.total_dropped()),
        "two seeds produced bit-identical fault timelines"
    );
}
