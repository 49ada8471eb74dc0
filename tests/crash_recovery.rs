//! Crash/recovery fault injection: SC-ABD serves through node death.
//!
//! Contracts exercised here, per ISSUE 7's acceptance criteria:
//!
//! 1. **Convergence**: with a seeded schedule crashing any single node
//!    mid-run (and recovering it), scabd completes and its *final
//!    memory image* and post-recovery results are identical to the
//!    crash-free run. Intermediate reads taken while the victim was
//!    down may legitimately observe its missing writes — the crash is
//!    a real fault, not a pause — but every write is eventually
//!    re-driven, so the quiesced heap must converge.
//! 2. **Determinism**: the counts of one crash-and-recover schedule are
//!    pinned in `tests/golden_counts.rs`.
//! 3. **PRNG pinning**: adding a crash schedule to a `FaultPlan`
//!    allocates no randomness. A lossy+jitter run with a crash
//!    scheduled far past the end of the run is bit-identical to the
//!    same run without it, for every legacy protocol exercised.
//! 4. **Minority death**: scabd completes with a node dead
//!    *permanently* (zombied program, survivors form quorums without
//!    it), while IvyCentral under the same schedule — its manager
//!    state dies with node 0 — is caught by the watchdog instead of
//!    hanging forever.
//!
//! The workload is barrier-phased and race-free with one u64 slot per
//! node per iteration, and uses a fresh barrier id per episode as the
//! crash-aware centralized barrier requires.

use dsm_core::{CostModel, Dsm, DsmConfig, Dur, FaultPlan, GlobalAddr, ProtocolKind, SimTime};

const NODES: u32 = 4;
const ITERS: u64 = 4;
const HEAP: usize = 1 << 12;

/// Deterministic xorshift64 for drawing crash instants — the *test's*
/// randomness, independent of the simulator's PRNGs.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    /// Uniform in [lo, hi).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn model(plan: FaultPlan) -> CostModel {
    CostModel::lan_1992()
        .with_jitter(Dur::micros(50), 42)
        .with_faults(plan)
}

/// One 256-byte page per node — ABD registers are whole-page
/// last-writer-wins, so concurrent sub-page writes to a *shared* page
/// would be a (documented) data race, not a crash-recovery bug.
const PAGE: usize = 256;

fn slot(node: usize, it: u64) -> GlobalAddr {
    GlobalAddr(node * PAGE + it as usize * 8)
}

/// Per-iteration: write my slot on my own page, barrier, sum
/// everyone's slots, barrier. Returns the last iteration's sum plus
/// the quiesced heap image (node 0 only) — the convergence
/// observables.
fn workload(dsm: &Dsm<'_>) -> (u64, Vec<u8>) {
    let me = dsm.id().0 as usize;
    let n = dsm.nodes() as usize;
    let mut last_sum = 0u64;
    for it in 0..ITERS {
        dsm.write_u64(slot(me, it), (me as u64 + 1) * 1000 + it);
        dsm.barrier((it * 2) as u32);
        let mut sum = 0u64;
        for i in 0..n {
            sum += dsm.read_u64(slot(i, it));
        }
        dsm.barrier((it * 2 + 1) as u32);
        last_sum = sum;
    }
    // Quiesce and image: everyone settles, then node 0 reads the whole
    // written region back through the protocol (quorum reads for
    // scabd).
    dsm.barrier(100);
    let image = if dsm.id().0 == 0 {
        dsm.read_bytes(GlobalAddr(0), NODES as usize * PAGE)
    } else {
        Vec::new()
    };
    dsm.barrier(101);
    (last_sum, image)
}

fn run(proto: ProtocolKind, plan: FaultPlan) -> dsm_core::RunResult<(u64, Vec<u8>)> {
    let cfg = DsmConfig::new(NODES, proto)
        .heap_bytes(HEAP)
        .page_size(256)
        .model(model(plan));
    dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| workload(dsm))
}

#[test]
fn scabd_converges_through_a_crash_and_recovery_at_any_node() {
    let clean = run(ProtocolKind::Scabd, FaultPlan::NONE);
    let span = clean.end_time.as_nanos();
    assert!(span > 0);
    let mut rng = Rng(0x5eed_cab1e);
    for victim in 0..NODES {
        for _ in 0..2 {
            // Crash somewhere in the first 80% of the clean run,
            // recover after a further 5–20% of it.
            let at = rng.range(span / 10, span * 8 / 10);
            let back = at + rng.range(span / 20, span / 5);
            let plan = FaultPlan::NONE.with_crash(victim, SimTime(at), Some(SimTime(back)));
            let faulty = run(ProtocolKind::Scabd, plan);
            assert_eq!(
                faulty.stats.crashes, 1,
                "node {victim} crash at {at}ns never fired (clean span {span}ns)"
            );
            assert_eq!(faulty.stats.recoveries, 1);
            // Final memory image and post-recovery sums converge with
            // the crash-free run.
            assert_eq!(
                clean.results, faulty.results,
                "node {victim} crash at {at}ns, recover {back}ns: diverged"
            );
        }
    }
}

#[test]
fn a_crash_schedule_draws_no_randomness() {
    // A lossy plan exercises the fault PRNG on every send; scheduling
    // a crash far past the end of the run must not shift a single
    // draw, for any protocol. This pins the invariant that legacy
    // (crash-free) fault plans behave exactly as they did before crash
    // schedules existed.
    let lossy = FaultPlan::lossy(0.10, 0.05, 777);
    let with_idle_crash =
        lossy
            .clone()
            .with_crash(1, SimTime(Dur::millis(3_600_000).as_nanos()), None);
    for proto in [
        ProtocolKind::IvyDynamic,
        ProtocolKind::Update,
        ProtocolKind::Scabd,
    ] {
        let a = run(proto, lossy.clone());
        let mut b = run(proto, with_idle_crash.clone());
        assert_eq!(a.results, b.results, "{proto:?}: results shifted");
        assert_eq!(a.end_time, b.end_time, "{proto:?}: end time shifted");
        // The kernel drains the (post-completion) fault event at
        // teardown, so the crash counter ticks; nothing else may.
        assert_eq!(b.stats.crashes, 1, "{proto:?}: idle crash not drained");
        b.stats.crashes = 0;
        assert_eq!(a.stats, b.stats, "{proto:?}: traffic shifted");
    }
}

#[test]
fn scabd_serves_through_permanent_minority_death_where_ivy_stalls() {
    // Node 3 dies for good mid-run: scabd's survivors keep forming
    // majorities (3 of 4) and complete; the dead node's program is
    // zombied. IvyCentral under a node-0 (manager) death loses the
    // ownership directory and must be caught by the watchdog rather
    // than hang.
    let at = SimTime(Dur::micros(900).as_nanos());
    let scabd_plan = FaultPlan::NONE.with_crash(3, at, None);
    let clean = run(ProtocolKind::Scabd, FaultPlan::NONE);
    let dead = run(ProtocolKind::Scabd, scabd_plan);
    assert_eq!(dead.stats.crashes, 1);
    assert_eq!(dead.stats.recoveries, 0);
    // Survivors complete; their final-iteration sums agree with each
    // other (SC: after the last barrier the image is stable), and the
    // survivors' own slots hold exactly the clean run's values.
    let survivor_sums: Vec<u64> = (0..3).map(|i| dead.results[i].0).collect();
    assert!(
        survivor_sums.windows(2).all(|w| w[0] == w[1]),
        "survivors disagree on the final image: {survivor_sums:?}"
    );
    let clean_img = &clean.results[0].1;
    let dead_img = &dead.results[0].1;
    assert_eq!(clean_img.len(), dead_img.len());
    for it in 0..ITERS {
        for node in 0..3usize {
            let off = slot(node, it).0;
            assert_eq!(
                clean_img[off..off + 8],
                dead_img[off..off + 8],
                "survivor {node} slot, iteration {it}"
            );
        }
    }

    // Same schedule, but the victim is the IvyCentral manager: the
    // run must fail deterministically (deadlock or stall verdict), not
    // hang the suite.
    let ivy_plan = FaultPlan::NONE.with_crash(0, at, None);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(ProtocolKind::IvyCentral, ivy_plan)
    }));
    assert!(
        outcome.is_err(),
        "IvyCentral survived its manager's permanent death — expected a watchdog verdict"
    );
}

/// The one-sided `rdma` protocol keeps a single unreplicated master
/// per page at its home. Its documented crash fallback (see the module
/// docs in `dsm-proto`): a permanently dead home takes the masters and
/// the directory with it, its requesters starve, and the watchdog
/// flags the run deterministically rather than letting the suite hang.
/// Fault-tolerant serving is scabd's job, not rdma's.
#[test]
fn rdma_home_death_starves_requesters_into_the_watchdog() {
    let at = SimTime(Dur::micros(900).as_nanos());
    let plan = FaultPlan::NONE.with_crash(0, at, None);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(ProtocolKind::Rdma, plan)
    }));
    std::panic::set_hook(prev);
    assert!(
        outcome.is_err(),
        "rdma survived a home's permanent death — expected a watchdog verdict"
    );
}
