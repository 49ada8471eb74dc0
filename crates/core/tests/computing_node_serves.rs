//! A node whose program computes, making no DSM call, still serves its
//! peers at once: its serving thread has the runtime and the socket to
//! itself, and one that parked while the program held the runtime wakes
//! at the program's release. The measure is wall time per miss, so the
//! test is alone in its binary — a test running beside it on a two-core
//! host would be timed too.

use std::time::{Duration, Instant};

use dsm_core::{run_in_threads, DsmConfig, GlobalAddr, NodeId, PageId, ProtocolKind};
use dsm_net::LOOPBACK_REL;

/// Pages homed at rank 1 that rank 0 reads while rank 1 computes.
const K: usize = 16;

/// How long rank 1 computes: well past rank 0's `K` misses. Its loop
/// yields the CPU at every turn: on a two-CPU host the kernel may queue
/// the woken serving thread behind a thread that never yields until the
/// next scheduler tick (4 ms at 250 Hz), whatever the node does — the
/// per-thread run-queue waits of a slow miss show it, and it failed 4 to
/// 16 of 100 debug runs, as many with a serving thread that blocks on the
/// runtime's lock. A yield hands that CPU over at once, and the loop
/// still computes, making no DSM call.
const COMPUTE: Duration = Duration::from_millis(100);

/// How long both ranks pause after the barriers, and rank 0 again once
/// rank 1 computes: the barriers' acks go out before a thread computes
/// on one of the host's two CPUs, and every timed miss falls in that.
const SETTLE: Duration = Duration::from_millis(10);

/// Two nodes under `ivy-fixed` meet at a barrier; rank 1 then computes
/// for [`COMPUTE`] with no DSM call while rank 0 misses on `K` pages
/// homed at rank 1, each one request served by rank 1's serving thread.
/// With `late`, rank 0 reaches a second barrier that long after rank 1,
/// which waits in it holding its runtime, so that its serving thread
/// parks for the release. Returns each miss's wall time, and each
/// node's retransmissions.
fn misses_while_rank_1_computes(late: Option<Duration>) -> (Vec<Duration>, Vec<u64>) {
    let ps = dsm_vm::os_page_size();
    let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
        .heap_bytes(4 * K * ps)
        .page_size(ps);
    let layout = cfg.layout();
    let homed_at_1: Vec<usize> = (0..layout.total_pages)
        .filter(|&p| layout.home_of(PageId(p)) == NodeId(1))
        .take(K + 1)
        .collect();
    assert_eq!(homed_at_1.len(), K + 1);
    let (warm, homed_at_1) = (homed_at_1[K], &homed_at_1[..K]);
    let run = run_in_threads(&cfg, |d| {
        // One miss before the timed ones, so that rank 0's link has an
        // RTT sample and its requests time out at the RTO floor, not at
        // the 2 ms first RTO.
        if d.id().0 == 0 {
            d.read_u64(GlobalAddr(warm * ps));
        }
        d.barrier(0);
        if let Some(late) = late {
            if d.id().0 == 0 {
                std::thread::sleep(late);
            }
            d.barrier(1);
        }
        let mut took = Vec::new();
        std::thread::sleep(SETTLE);
        if d.id().0 == 1 {
            let start = Instant::now();
            while start.elapsed() < COMPUTE {
                std::thread::yield_now();
            }
        } else {
            std::thread::sleep(SETTLE);
            for &page in homed_at_1 {
                let t = Instant::now();
                assert_eq!(d.read_u64(GlobalAddr(page * ps)), 0);
                took.push(t.elapsed());
            }
        }
        d.barrier(2);
        took
    });
    let resent = run.stats.iter().map(|s| s.total_retransmits()).collect();
    (run.results.into_iter().flatten().collect(), resent)
}

/// Tries of each case, of which one must pass: a host stall of a few
/// milliseconds, which leaves any thread of the test waiting for a CPU,
/// fails a try about once in a hundred debug runs, and the next try
/// runs clear of it. A node that leaves its peers to the program fails
/// every try: a miss then waits for the program's next call, tens of
/// milliseconds.
const TRIES: usize = 3;

/// Each miss is served well inside the loopback RTO floor, and no node
/// resends anything, in both cases.
#[test]
fn a_computing_node_serves_its_peers_at_once() {
    let bound = Duration::from_nanos(LOOPBACK_REL.rto_min.as_nanos() / 2);
    for late in [None, Some(Duration::from_millis(50))] {
        let mut tries = Vec::new();
        let served = (0..TRIES).any(|_| {
            let (took, resent) = misses_while_rank_1_computes(late);
            assert_eq!(took.len(), K, "{late:?}");
            let served = took.iter().all(|&t| t < bound) && resent == [0, 0];
            tries.push((took, resent));
            served
        });
        assert!(
            served,
            "{late:?}: no try served every miss under {bound:?} without a \
             resend; (miss times, resends per node) per try: {tries:?}"
        );
    }
}
