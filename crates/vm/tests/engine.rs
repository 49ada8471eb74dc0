//! End-to-end tests of the in-process engine: a remote read fault is
//! served from the home's copy, transparently. Stores, locks and
//! several writers of one page are cluster mode's (`dsm-core`'s
//! `cluster_sc` tests).

use dsm_vm::cluster::{ACC_NONE, ACC_READ, ACC_WRITE};
use dsm_vm::{os_page_size, run_vm, VmConfig, VmMode};
use std::sync::atomic::{AtomicBool, Ordering};

/// Node 1 reads every page homed at node 0 — the path the benchmark
/// ledger's `vm.engine_fault_us` times. Each read returns the home's
/// bytes, takes one trap, and leaves the page read-only on both sides.
#[test]
fn a_remote_read_downgrades_the_home_and_installs_its_bytes() {
    let (cfg, ps) = (VmConfig::new(2, 8, VmMode::Invalidate), os_page_size());
    let homed_at_0 = || (0..cfg.pages).step_by(2);
    let word = |p: usize| p * ps + 8;
    let res = run_vm(cfg, |node| {
        // SAFETY: node 0 stores to its pages before the barrier that
        // node 1's reads follow.
        let view = unsafe { node.view() };
        let rights = || homed_at_0().map(|p| view.access(p)).collect::<Vec<_>>();
        let before = rights();
        if node.id() == 0 {
            // Its own writable pages: no trap.
            homed_at_0().for_each(|p| view.write::<u64>(word(p), 100 + p as u64));
        }
        node.barrier();
        let read: Vec<u64> = match node.id() {
            1 => homed_at_0().map(|p| node.read::<u64>(word(p))).collect(),
            _ => vec![],
        };
        node.barrier();
        (before, rights(), read, view.traps())
    });
    let n = cfg.pages / 2;
    let (before, after, _, traps) = &res.results[0];
    assert_eq!(
        (before, after, *traps),
        (&vec![ACC_WRITE; n], &vec![ACC_READ; n], 0)
    );
    let (before, after, read, traps) = &res.results[1];
    assert_eq!((before, after), (&vec![ACC_NONE; n], &vec![ACC_READ; n]));
    assert_eq!(
        *read,
        homed_at_0().map(|p| 100 + p as u64).collect::<Vec<_>>()
    );
    assert_eq!(*traps, n as u64, "one trap per page");
}

/// Four nodes read every page at once, each of the three non-homes
/// faulting on it; every copy is the home's.
#[test]
fn invalidate_mode_is_coherent_across_nodes() {
    let (cfg, ps) = (VmConfig::new(4, 8, VmMode::Invalidate), os_page_size());
    let word = |p: usize| p * ps;
    let res = run_vm(cfg, |node| {
        let me = node.id();
        for p in (me..cfg.pages).step_by(4) {
            // SAFETY: a store to its own page, before the barrier.
            unsafe { node.view() }.write::<u64>(word(p), (p as u64 + 1) * 100);
        }
        node.barrier();
        (0..cfg.pages)
            .map(|p| node.read::<u64>(word(p)))
            .sum::<u64>()
    });
    assert_eq!(res.results, [(1..=8).sum::<u64>() * 100; 4]);
}

#[test]
fn sequential_engines_reuse_handler() {
    // Engines must be creatable repeatedly (global handler survives).
    for _ in 0..3 {
        let ps = os_page_size();
        let res = run_vm(VmConfig::new(2, 2, VmMode::Invalidate), |node| {
            let me = node.id();
            // SAFETY: a store to its own page, before the barrier.
            unsafe { node.view() }.write::<u64>(me * ps, 1);
            node.barrier();
            node.read::<u64>(0) + node.read::<u64>(ps)
        });
        assert_eq!(res.results, vec![2, 2]);
    }
}

/// The engine serves no store: one that traps fails the run instead of
/// hanging it.
#[test]
#[should_panic(expected = "a scoped thread panicked")]
fn a_store_that_traps_fails_the_run() {
    run_vm(VmConfig::new(2, 2, VmMode::Invalidate), |node| {
        if node.id() == 1 {
            // SAFETY: page 0 is homed at node 0, which does not store.
            unsafe { node.view() }.write::<u64>(0, 1);
        }
    });
}

#[test]
fn panicking_program_fails_the_run() {
    let run = || {
        run_vm(VmConfig::new(1, 2, VmMode::Invalidate), |node| {
            node.read::<u64>(0);
            panic!("program failed")
        })
    };
    let payload = std::panic::catch_unwind(run).expect_err("the panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"program failed"));
}

#[test]
fn faults_are_served_until_every_node_is_done() {
    // Node 1 panics at once; node 0 then faults on node 1's page and
    // must still be served before the panic is re-raised.
    let cfg = VmConfig::new(2, 2, VmMode::Invalidate);
    let ps = os_page_size();
    let peer_gone = AtomicBool::new(false);
    let seen = AtomicBool::new(false);
    let run = std::panic::AssertUnwindSafe(|| {
        run_vm(cfg, |node| {
            if node.id() == 1 {
                peer_gone.store(true, Ordering::Release);
                panic!("node 1 failed");
            }
            while !peer_gone.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            assert_eq!(node.read::<u64>(ps), 0);
            seen.store(true, Ordering::Release);
        })
    });
    assert!(std::panic::catch_unwind(run).is_err());
    assert!(seen.load(Ordering::Acquire));
}

#[test]
#[should_panic(expected = "read [g:0xfffffffffffffffc, +8) out of bounds")]
fn read_near_usize_max_is_refused() {
    // `off + size` wraps to 4: the bounds check must not.
    run_vm(VmConfig::new(1, 1, VmMode::Invalidate), |node| {
        node.read::<u64>(usize::MAX - 3)
    });
}
