//! End-to-end tests of the page-fault engine: faults must be
//! transparent and sequentially consistent.

use dsm_vm::cluster::ACC_READ;
use dsm_vm::{os_page_size, run_vm, ClusterView, VmConfig, VmMode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

#[test]
fn single_node_write_read_via_faults() {
    let cfg = VmConfig::new(1, 4, VmMode::Invalidate);
    let res = run_vm(cfg, |node| {
        node.write::<u64>(8, 0xDEAD_BEEF);
        node.write::<u64>(cfg.page_size + 16, 7);
        node.read::<u64>(8) + node.read::<u64>(cfg.page_size + 16)
    });
    assert_eq!(res.results[0], 0xDEAD_BEEF + 7);
}

#[test]
fn invalidate_mode_is_coherent_across_nodes() {
    let cfg = VmConfig::new(4, 8, VmMode::Invalidate);
    let res = run_vm(cfg, |node| {
        let me = node.id();
        // Each node writes one slot in page 0 — heavy true sharing.
        node.write::<u64>(me * 8, (me as u64 + 1) * 100);
        node.barrier();
        let mut sum = 0;
        for i in 0..4 {
            sum += node.read::<u64>(i * 8);
        }
        sum
    });
    for &s in &res.results {
        assert_eq!(s, 100 + 200 + 300 + 400);
    }
}

/// A write fault that takes the page from a node with write rights must
/// stop that node's stores before copying: a store landing between the
/// copy and the invalidation is lost (about 3 % of these rounds, before
/// the owner was downgraded first).
#[test]
fn invalidate_mode_loses_no_store_of_a_displaced_writer() {
    let cfg = VmConfig::new(4, 1, VmMode::Invalidate);
    let res = run_vm(cfg, |node| {
        let mut lost = 0;
        for round in 1..=500u64 {
            node.write::<u64>(node.id() * 8, round);
            node.barrier();
            lost += (0..4).filter(|i| node.read::<u64>(i * 8) != round).count();
            node.barrier();
        }
        lost
    });
    assert_eq!(res.results, [0; 4]);
}

#[test]
fn invalidate_mode_sc_flag_handshake() {
    let cfg = VmConfig::new(2, 2, VmMode::Invalidate);
    let res = run_vm(cfg, |node| {
        if node.id() == 0 {
            node.write::<u64>(0, 777); // data
            node.write::<u64>(8, 1); // flag, same page: SC ordering
            0
        } else {
            while node.read::<u64>(8) == 0 {
                std::hint::spin_loop();
            }
            node.read::<u64>(0)
        }
    });
    assert_eq!(res.results[1], 777);
}

#[test]
fn sequential_engines_reuse_handler() {
    // Engines must be creatable repeatedly (global handler survives).
    for _ in 0..3 {
        let cfg = VmConfig::new(2, 2, VmMode::Invalidate);
        let res = run_vm(cfg, |node| {
            node.write::<u64>(node.id() * 8, 1);
            node.barrier();
            node.read::<u64>(0) + node.read::<u64>(8)
        });
        assert_eq!(res.results, vec![2, 2]);
    }
}

#[test]
fn invalidate_mode_lock_protected_counter() {
    // Contended read-modify-write through real page faults: SC + mutex
    // must make increments atomic.
    let cfg = VmConfig::new(4, 2, VmMode::Invalidate);
    let iters = 25u64;
    let res = run_vm(cfg, |node| {
        for _ in 0..iters {
            node.with_lock(3, || {
                let v = node.read::<u64>(0);
                node.write::<u64>(0, v + 1);
            });
        }
        node.barrier();
        node.read::<u64>(0)
    });
    for &v in &res.results {
        assert_eq!(v, 4 * iters);
    }
}

#[test]
fn two_engines_and_a_bare_view_share_one_process() {
    let ps = os_page_size();
    // Node 0 of each engine and the bare view's application meet here,
    // so all three are live at once, with faults on either side.
    let all_live = Barrier::new(3);
    let engine = || {
        let res = run_vm(VmConfig::new(2, 2, VmMode::Invalidate), |node| {
            node.write::<u64>(node.id() * 8, node.id() as u64 + 1);
            if node.id() == 0 {
                all_live.wait();
            }
            node.barrier();
            node.read::<u64>(0) + node.read::<u64>(8)
        });
        assert_eq!(res.results, vec![3, 3]);
    };
    let view = ClusterView::new(2, ps).unwrap();
    let fill = vec![5u8; ps];
    std::thread::scope(|s| {
        s.spawn(engine);
        s.spawn(engine);
        s.spawn(|| {
            while let Some(fault) = view.next_fault() {
                view.install_page(fault.page, &fill, ACC_READ);
                view.finish_fault();
            }
        });
        assert_eq!(view.read::<u8>(ps), 5);
        all_live.wait();
        assert_eq!(view.read::<u8>(0), 5);
        view.stop();
    });
}

#[test]
fn panicking_program_fails_the_run() {
    let run = || {
        run_vm(VmConfig::new(1, 2, VmMode::Invalidate), |node| {
            node.write::<u64>(0, 1);
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
            assert_eq!(node.read::<u64>(cfg.page_size), 0);
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
