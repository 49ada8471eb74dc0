//! Workspace-level integration: the two execution engines (simulated
//! and real pages) run the same programs and agree with each other and
//! with sequential expectations; the experiment harness runs end to
//! end.

use dsm_core::{ClusterDsm, Dsm, DsmConfig, Dur, Engine, GlobalAddr, ProtocolKind};

/// Each node writes its own word of one page, passes a barrier and sums
/// its two neighbors' words.
fn neighbor_sum(d: &Dsm<'_, impl Engine>) -> u64 {
    let (me, n) = (d.id().0 as usize, d.nodes() as usize);
    d.write_u64(GlobalAddr(me * 8), (me as u64 + 1) * 7);
    d.barrier(0);
    let left = d.read_u64(GlobalAddr(((me + n - 1) % n) * 8));
    let right = d.read_u64(GlobalAddr(((me + 1) % n) * 8));
    left + right
}

/// The same neighbor-sum program under IVY on the simulated engine and
/// on real pages (cluster mode over `dsm-vm`'s views) must produce the
/// same values.
#[test]
fn sim_and_vm_engines_agree_on_neighbor_sums() {
    let sim = DsmConfig::new(4, ProtocolKind::IvyFixed)
        .heap_bytes(1 << 14)
        .page_size(256);
    let sim = dsm_core::run_dsm(&sim, |d: &Dsm<'_>| neighbor_sum(d)).results;
    let ps = dsm_vm::os_page_size();
    let pages = DsmConfig::new(4, ProtocolKind::IvyFixed)
        .heap_bytes(4 * ps)
        .page_size(ps);
    let pages = dsm_core::run_in_threads(&pages, |d: &ClusterDsm<'_>| neighbor_sum(d)).results;
    assert_eq!(sim, pages);
    // And both match the closed form.
    let n = sim.len();
    for (me, &v) in sim.iter().enumerate() {
        let l = ((me + n - 1) % n) as u64 + 1;
        let r = ((me + 1) % n) as u64 + 1;
        assert_eq!(v, (l + r) * 7);
    }
}

/// Four nodes each write their own word of one page, pass a barrier
/// and sum all four: the same program on both engines.
fn slot_sum(d: &Dsm<'_, impl Engine>) -> u64 {
    let (me, n) = (d.id().0 as usize, d.nodes() as usize);
    d.write_u64(GlobalAddr(me * 8), me as u64 + 1); // one page
    d.barrier(0);
    (0..n).map(|i| d.read_u64(GlobalAddr(i * 8))).sum()
}

/// Cluster `lrc` on real pages and the simulated ERC protocol both
/// merge false-shared writers of one page.
#[test]
fn multiple_writer_merge_on_both_engines() {
    let sim = DsmConfig::new(4, ProtocolKind::Erc)
        .heap_bytes(1 << 12)
        .page_size(256);
    let sim = dsm_core::run_dsm(&sim, |d: &Dsm<'_>| slot_sum(d)).results;
    let ps = dsm_vm::os_page_size();
    let pages = DsmConfig::new(4, ProtocolKind::Lrc)
        .heap_bytes(2 * ps)
        .page_size(ps);
    let pages = dsm_core::run_in_threads(&pages, |d: &ClusterDsm<'_>| slot_sum(d)).results;
    assert_eq!(sim, [1 + 2 + 3 + 4; 4]);
    assert_eq!(pages, [1 + 2 + 3 + 4; 4]);
}

/// The experiment harness's quick mode runs every experiment without
/// panicking (shapes are checked by eye / EXPERIMENTS.md, correctness
/// by the oracle suite).
#[test]
fn quick_experiment_suite_runs() {
    dsm_bench::run_all(dsm_bench::Scale::Quick);
}

/// Virtual time is additive across engines' primitives: barriers,
/// locks, and computes compose into deterministic end times.
#[test]
fn deterministic_virtual_times_across_protocols() {
    for proto in ProtocolKind::EVERY {
        let run = || {
            let cfg = DsmConfig::new(3, proto).heap_bytes(1 << 12).page_size(256);
            let res = dsm_core::run_dsm(&cfg, |dsm| {
                dsm.compute(Dur::micros(100 * (dsm.id().0 as u64 + 1)));
                dsm.barrier(0);
                dsm.with_lock(0, |d| {
                    let v = d.read_u64(GlobalAddr(0));
                    d.write_u64(GlobalAddr(0), v + 1);
                });
                dsm.barrier(1);
            });
            (
                res.end_time,
                res.stats.total_msgs(),
                res.stats.total_bytes(),
            )
        };
        assert_eq!(run(), run(), "{proto} not deterministic");
    }
}
