//! Sequential consistency on real pages: every protocol cluster mode
//! runs whose row promises `Sc` keeps it for programs that share one
//! page, racy ones included — on real pages and in the simulator, one
//! program for both, lossless and at 10 % drop. The programs ask the rows, not a list of
//! protocols. The data-race-free programs' histories are held to the
//! contract by the checker of `common`; the racy flag handshake, which
//! it does not judge, has a deadline on its spin, so a protocol that
//! loses a store fails an assertion here instead of hanging the run.

#[macro_use]
mod common;

use std::time::{Duration, Instant};

use dsm_core::{
    run_dsm, run_in_threads, ClusterDsm, Consistency, Dsm, DsmConfig, Dur, Engine, GlobalAddr,
    ProtocolKind,
};
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
/// stores after this round's reads. Returns this node's stale reads.
fn displaced_writers(d: &Dsm<'_, impl Engine>) -> usize {
    const ROUNDS: u64 = 200;
    let value = |round: u64, node: usize| round * 16 + node as u64 + 1;
    let (me, nodes) = (d.id().0 as usize, d.nodes() as usize);
    let mut stale = 0;
    for round in 0..ROUNDS {
        d.write_u64(word(me), value(round, me));
        d.barrier(0);
        stale += (0..nodes)
            .filter(|&n| d.read_u64(word(n)) != value(round, n))
            .count();
        d.barrier(1);
    }
    stale
}

#[test]
fn displaced_writers_of_one_page_read_no_stale_slot() {
    for kind in sc_rows() {
        for cfg in common::networks(one_page(4, kind)) {
            for (engine, stale) in checked_on_both_engines!(&cfg, |d| displaced_writers(d)) {
                assert_eq!(stale, [0; 4], "{kind} on {engine}: stale reads per node");
            }
        }
    }
}

/// Spin until `addr` reads `want` or `PATIENCE` runs out; whether it did.
fn await_value(d: &Dsm<'_, impl Engine>, addr: GlobalAddr, want: u64) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while d.read_u64(addr) != want {
        if Instant::now() > deadline {
            return false;
        }
        d.compute(Dur::micros(1));
        std::hint::spin_loop();
    }
    true
}

const ROUNDS: u64 = 10;

/// Node 0 stores data, then a flag, on one page; node 1 spins on the
/// flag and then reads the data, with no lock or barrier between them:
/// a racy program, which an SC protocol still runs as written. Ten
/// rounds, each closed by a barrier. Returns the rounds whose data this
/// node saw.
fn flag_handshake(d: &Dsm<'_, impl Engine>) -> u64 {
    let (data, flag) = (word(0), word(1));
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
}

#[test]
fn a_flag_on_the_data_page_publishes_the_data() {
    for kind in sc_rows() {
        for cfg in common::networks(one_page(2, kind)) {
            let sim = run_dsm(&cfg, |d: &Dsm<'_>| flag_handshake(d)).results;
            let pages = run_in_threads(&cfg, |d: &ClusterDsm<'_>| flag_handshake(d)).results;
            for (engine, seen) in [("simulator", sim), ("real pages", pages)] {
                let engine = common::engine(engine, &cfg);
                assert_eq!(
                    seen[1], ROUNDS,
                    "{kind} on {engine}: rounds whose data node 1 saw"
                );
            }
        }
    }
}

const INCREMENTS: u64 = 200;

/// Two nodes each increment their own word of one page 200 times under
/// their own lock: nothing orders one node's stores against the other's
/// until the closing barrier, and both keep every increment.
fn own_lock_increments(d: &Dsm<'_, impl Engine>) -> [u64; 2] {
    let mine = word(d.id().0 as usize);
    for _ in 0..INCREMENTS {
        d.with_lock(d.id().0, |d| {
            let v = d.read_u64(mine);
            d.write_u64(mine, v + 1);
        });
    }
    d.barrier(0);
    [d.read_u64(word(0)), d.read_u64(word(1))]
}

#[test]
fn writers_of_one_page_under_their_own_locks_keep_their_increments() {
    for kind in sc_rows() {
        for cfg in common::networks(one_page(2, kind)) {
            for (engine, results) in checked_on_both_engines!(&cfg, |d| own_lock_increments(d)) {
                assert_eq!(results, [[INCREMENTS; 2]; 2], "{kind} on {engine}");
            }
        }
    }
}
