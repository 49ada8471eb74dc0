//! The history checker of `common`, held to hand-written histories: it
//! must fail a stale read and name the pair, pass the fresh one, and
//! tell a race apart from a violation.

mod common;

use common::{History, Op, Verdict};
use dsm_core::{Consistency, DsmConfig, ProtocolKind};

/// An empty two-node history under a row whose contract is `Drf`.
fn two_nodes() -> History {
    let drf = ProtocolKind::EVERY
        .into_iter()
        .find(|kind| kind.facts().consistency == Consistency::Drf)
        .expect("a Drf row");
    History::new(&DsmConfig::new(2, drf))
}

/// Node 0 writes 1 under lock 0 and releases it; node 1 acquires it
/// next and reads `seen`.
fn lock_hand_off(seen: u64) -> History {
    let h = two_nodes();
    h.push(0, Op::Acquire(0));
    h.push(0, Op::Write { addr: 8, value: 1 });
    h.push(0, Op::Release(0));
    h.push(1, Op::Acquire(0));
    h.push(
        1,
        Op::Read {
            addr: 8,
            value: seen,
        },
    );
    h.push(1, Op::Release(0));
    h
}

#[test]
fn a_stale_read_after_a_lock_hand_off_fails_naming_the_pair() {
    let verdict = lock_hand_off(0).check();
    let Verdict::Stale {
        write: Some(write),
        read,
    } = verdict
    else {
        panic!("not a stale read: {verdict}");
    };
    assert_eq!((write.node, write.op), (0, Op::Write { addr: 8, value: 1 }));
    assert_eq!((read.node, read.op), (1, Op::Read { addr: 8, value: 0 }));
    let said = verdict.to_string();
    assert!(said.contains("node 1 read g:0x8 = 0"), "{said}");
    assert!(said.contains("node 0 wrote g:0x8 = 1"), "{said}");
}

#[test]
fn the_fresh_read_after_a_lock_hand_off_holds() {
    assert_eq!(lock_hand_off(1).check(), Verdict::Holds);
}

#[test]
fn a_barrier_orders_writes_before_it_with_reads_after_it() {
    let h = two_nodes();
    h.push(0, Op::Write { addr: 0, value: 7 });
    h.push(0, Op::Barrier(0));
    h.push(1, Op::Barrier(0));
    h.push(1, Op::Read { addr: 0, value: 7 });
    h.push(1, Op::Read { addr: 8, value: 0 });
    assert_eq!(h.check(), Verdict::Holds);
}

#[test]
fn an_unordered_write_to_the_word_read_is_a_race() {
    let h = two_nodes();
    h.push(0, Op::Write { addr: 8, value: 1 });
    h.push(1, Op::Acquire(0));
    h.push(1, Op::Read { addr: 8, value: 1 });
    h.push(1, Op::Release(0));
    let verdict = h.check();
    assert!(matches!(verdict, Verdict::Race { .. }), "{verdict}");
}

#[test]
fn a_lock_held_twice_at_once_breaks_the_sync_order() {
    let h = two_nodes();
    h.push(0, Op::Acquire(0));
    h.push(1, Op::Acquire(0));
    h.push(0, Op::Release(0));
    h.push(1, Op::Release(0));
    let verdict = h.check();
    assert!(matches!(verdict, Verdict::Broken(_)), "{verdict}");
}
