//! Workspace-level integration: the execution engines (simulated and
//! real page-fault) run analogous workloads and agree with each other
//! and with sequential expectations; the experiment harness runs end to
//! end.

use dsm_core::{DsmConfig, Dur, GlobalAddr, ProtocolKind};
use dsm_vm::{run_vm, VmConfig, VmMode};

/// The same neighbor-sum workload on the simulated engine (under IVY)
/// and on the real mprotect engine (invalidate mode) must produce the
/// same values.
#[test]
fn sim_and_vm_engines_agree_on_neighbor_sums() {
    let n = 4usize;

    let sim = {
        let cfg = DsmConfig::new(n as u32, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 14)
            .page_size(256);
        let res = dsm_core::run_dsm(&cfg, |dsm| {
            let me = dsm.id().0 as usize;
            dsm.write_u64(GlobalAddr(me * 8), (me as u64 + 1) * 7);
            dsm.barrier(0);
            let left = dsm.read_u64(GlobalAddr(((me + n - 1) % n) * 8));
            let right = dsm.read_u64(GlobalAddr(((me + 1) % n) * 8));
            left + right
        });
        res.results
    };

    let vm = {
        let cfg = VmConfig::new(n, 4, VmMode::Invalidate);
        let res = run_vm(cfg, |node| {
            let me = node.id();
            node.write::<u64>(me * 8, (me as u64 + 1) * 7);
            node.barrier();
            let left = node.read::<u64>(((me + n - 1) % n) * 8);
            let right = node.read::<u64>(((me + 1) % n) * 8);
            left + right
        });
        res.results
    };

    assert_eq!(sim, vm);
    // And both match the closed form.
    for (me, &v) in sim.iter().enumerate() {
        let l = ((me + n - 1) % n) as u64 + 1;
        let r = ((me + 1) % n) as u64 + 1;
        assert_eq!(v, (l + r) * 7);
    }
}

/// Cluster `lrc` on real pages and the simulated ERC protocol both
/// merge false-shared writers of one page.
#[test]
fn multiple_writer_merge_on_both_engines() {
    let n = 4usize;

    let sim = {
        let cfg = DsmConfig::new(n as u32, ProtocolKind::Erc)
            .heap_bytes(1 << 12)
            .page_size(256);
        let res = dsm_core::run_dsm(&cfg, |dsm| {
            let me = dsm.id().0 as usize;
            dsm.write_u64(GlobalAddr(me * 8), me as u64 + 1); // one page
            dsm.barrier(0);
            (0..n).map(|i| dsm.read_u64(GlobalAddr(i * 8))).sum::<u64>()
        });
        res.results
    };
    assert!(sim.iter().all(|&s| s == (1..=n as u64).sum()));

    let cluster = {
        let ps = dsm_vm::os_page_size();
        let cfg = DsmConfig::new(n as u32, ProtocolKind::Lrc)
            .heap_bytes(2 * ps)
            .page_size(ps);
        dsm_core::run_in_threads(&cfg, |d| {
            let me = d.id().0 as usize;
            d.write_u64(GlobalAddr(me * 8), me as u64 + 1);
            d.barrier(0);
            (0..n).map(|i| d.read_u64(GlobalAddr(i * 8))).sum::<u64>()
        })
    };
    assert!(cluster.iter().all(|&s| s == (1..=n as u64).sum()));
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
