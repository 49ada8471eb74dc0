//! Sequential consistency on real pages: every protocol cluster mode
//! runs whose row promises `Sc` keeps it for programs that share one
//! page, racy ones included. The programs ask the rows, not a list of
//! protocols. Every spin has a deadline, so a protocol that loses a
//! store fails an assertion here instead of hanging the run.

use std::time::{Duration, Instant};

use dsm_core::{run_in_threads, ClusterDsm, Consistency, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_vm::os_page_size;

/// How long a reader waits for a store it has been promised.
const PATIENCE: Duration = Duration::from_secs(2);

/// Every protocol cluster mode runs whose contract is SC for any program.
fn sc_rows() -> Vec<ProtocolKind> {
    let rows: Vec<_> = ProtocolKind::EVERY
        .into_iter()
        .filter(|kind| {
            let facts = kind.facts();
            facts.page_fault_driven.is_ok() && facts.consistency == Consistency::Sc
        })
        .collect();
    assert!(rows.len() >= 2, "{rows:?}");
    rows
}

/// `nodes` nodes sharing a one-page heap.
fn one_page(nodes: u32, kind: ProtocolKind) -> DsmConfig {
    let ps = os_page_size();
    DsmConfig::new(nodes, kind).heap_bytes(ps).page_size(ps)
}

/// Word `i` of the one page.
fn word(i: usize) -> GlobalAddr {
    GlobalAddr(i * 8)
}

/// Four nodes each store their own word of one page, pass a barrier and
/// read all four words, 200 rounds: a data-race-free program, so every
/// read sees the round's value. A second barrier keeps the next round's
/// stores after this round's reads.
#[test]
fn displaced_writers_of_one_page_read_no_stale_slot() {
    const NODES: usize = 4;
    const ROUNDS: u64 = 200;
    let value = |round: u64, node: usize| round * 16 + node as u64 + 1;
    for kind in sc_rows() {
        let stale = run_in_threads(&one_page(NODES as u32, kind), |d| {
            let me = d.id().0 as usize;
            let mut stale = 0;
            for round in 0..ROUNDS {
                d.write_u64(word(me), value(round, me));
                d.barrier(0);
                stale += (0..NODES)
                    .filter(|&n| d.read_u64(word(n)) != value(round, n))
                    .count();
                d.barrier(1);
            }
            stale
        });
        assert_eq!(stale, [0; NODES], "{kind}: stale reads per node");
    }
}

/// Spin until `addr` reads `want` or `PATIENCE` runs out; whether it did.
fn await_value(d: &ClusterDsm<'_>, addr: GlobalAddr, want: u64) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while d.read_u64(addr) != want {
        if Instant::now() > deadline {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

/// Node 0 stores data, then a flag, on one page; node 1 spins on the
/// flag and then reads the data, with no lock or barrier between them:
/// a racy program, which an SC protocol still runs as written. Ten
/// rounds, each closed by a barrier.
#[test]
fn a_flag_on_the_data_page_publishes_the_data() {
    const ROUNDS: u64 = 10;
    let (data, flag) = (word(0), word(1));
    for kind in sc_rows() {
        let seen = run_in_threads(&one_page(2, kind), |d| {
            let mut seen = 0;
            for round in 1..=ROUNDS {
                if d.id().0 == 0 {
                    d.write_u64(data, round * 100);
                    d.write_u64(flag, round);
                } else if await_value(d, flag, round) && d.read_u64(data) == round * 100 {
                    seen += 1;
                }
                d.barrier(0);
            }
            seen
        });
        assert_eq!(seen[1], ROUNDS, "{kind}: rounds whose data node 1 saw");
    }
}

/// Two nodes each increment their own word of one page 200 times under
/// their own lock: nothing orders one node's stores against the other's
/// until the closing barrier, and both keep every increment.
#[test]
fn writers_of_one_page_under_their_own_locks_keep_their_increments() {
    const INCREMENTS: u64 = 200;
    for kind in sc_rows() {
        let results = run_in_threads(&one_page(2, kind), |d| {
            let mine = word(d.id().0 as usize);
            for _ in 0..INCREMENTS {
                d.with_lock(d.id().0, |d| {
                    let v = d.read_u64(mine);
                    d.write_u64(mine, v + 1);
                });
            }
            d.barrier(0);
            [d.read_u64(word(0)), d.read_u64(word(1))]
        });
        assert_eq!(results, [[INCREMENTS; 2]; 2], "{kind}");
    }
}
