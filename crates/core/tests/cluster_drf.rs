//! Release consistency on real pages: every protocol cluster mode runs
//! whose row promises `Drf` — sequential consistency for data-race-free
//! programs — keeps it for programs whose writers share pages, on
//! threads of this process and in the simulator, one program for both,
//! lossless and at 10 % drop.
//! The programs ask the rows, not a list of protocols, and each run's
//! history is held to the contract by the checker of `common`, beside
//! the exact totals. Writers of different bytes of one page keep their
//! bytes when barriers or different locks order them.

#[macro_use]
mod common;

use dsm_core::{Consistency, Dsm, DsmConfig, Engine, GlobalAddr, ProtocolKind};
use dsm_vm::os_page_size;

/// Every protocol cluster mode runs whose contract is `Drf`.
fn drf_rows() -> Vec<ProtocolKind> {
    let rows: Vec<_> = ProtocolKind::EVERY
        .into_iter()
        .filter(|kind| {
            let facts = kind.facts();
            facts.page_fault_driven.is_ok() && facts.consistency == Consistency::Drf
        })
        .collect();
    assert!(rows.len() >= 2, "{rows:?}");
    rows
}

/// `nodes` nodes sharing `pages` real pages under `kind`. Lock `n`
/// guards word `n` of page 0 (the own-lock program's), for the rows
/// whose data is coherent only through the lock it is bound to; the
/// other rows ignore the bindings.
fn config(nodes: u32, pages: usize, kind: ProtocolKind) -> DsmConfig {
    let ps = os_page_size();
    DsmConfig::new(nodes, kind)
        .heap_bytes(pages * ps)
        .page_size(ps)
        .bind(0, word(0), 8)
        .bind(1, word(1), 8)
}

/// Word `i` of page 0.
fn word(i: usize) -> GlobalAddr {
    GlobalAddr(i * 8)
}

fn rank(d: &Dsm<'_, impl Engine>) -> usize {
    d.id().0 as usize
}

/// All four nodes write disjoint quarters of page 0 concurrently (false
/// sharing), then everyone checks everyone's quarter: the diffs must
/// merge all of them.
fn quarters(d: &Dsm<'_, impl Engine>) -> bool {
    let quarter = os_page_size() / 4;
    let me = rank(d);
    for i in 0..quarter / 8 {
        d.write_u64(GlobalAddr(me * quarter + i * 8), (me * 1000 + i) as u64);
    }
    d.barrier(0);
    (0..4).all(|m| {
        (0..quarter / 8)
            .all(|i| d.read_u64(GlobalAddr(m * quarter + i * 8)) == (m * 1000 + i) as u64)
    })
}

#[test]
fn twin_diff_merges_concurrent_writers_of_one_page() {
    for kind in drf_rows() {
        for cfg in common::networks(config(4, 2, kind)) {
            for (engine, seen) in checked_on_both_engines!(&cfg, |d| quarters(d)) {
                assert_eq!(seen, [true; 4], "{kind} on {engine}");
            }
        }
    }
}

/// Two nodes take turns adding `round + 1` to one word, a barrier
/// after each of `rounds` rounds; the sum whoever did which round.
fn turn_taking(d: &Dsm<'_, impl Engine>, rounds: u64) -> u64 {
    for round in 0..rounds {
        if rank(d) as u64 == round % 2 {
            let v = d.read_u64(word(0));
            d.write_u64(word(0), v + round + 1);
        }
        d.barrier(0);
    }
    d.read_u64(word(0))
}

#[test]
fn twin_diff_multiple_barrier_rounds() {
    for kind in drf_rows() {
        // 1+2+3+4+5 = 15 regardless of which node did which round.
        for cfg in common::networks(config(2, 2, kind)) {
            for (engine, sums) in checked_on_both_engines!(&cfg, |d| turn_taking(d, 5)) {
                assert_eq!(sums, [15, 15], "{kind} on {engine}");
            }
        }
    }
}

/// The reactor raised view pages after dispatching a datagram, under a
/// running program: a store racing the install landed with no fault, so
/// no twin and no write notice, and in 9 of 10 runs a round's write was
/// lost under `lrc`. Raising rights only where the program is parked
/// fixed it.
#[test]
fn turn_taking_writers_of_one_page_lose_no_round() {
    const ROUNDS: u64 = 3000;
    let want = ROUNDS * (ROUNDS + 1) / 2;
    for kind in drf_rows() {
        for cfg in common::networks(config(2, 1, kind)) {
            for (engine, sums) in checked_on_both_engines!(&cfg, |d| turn_taking(d, ROUNDS)) {
                assert_eq!(sums, [want, want], "{kind} on {engine}");
            }
        }
    }
}

const INCREMENTS: u64 = 200;

/// Two nodes each increment their own word of one page under their own
/// lock, with nothing ordering one node's writes against the other's
/// until the closing barrier.
fn own_lock_increments(d: &Dsm<'_, impl Engine>) -> [u64; 2] {
    let me = rank(d);
    for _ in 0..INCREMENTS {
        d.with_lock(me as u32, |d| {
            let v = d.read_u64(word(me));
            d.write_u64(word(me), v + 1);
        });
    }
    d.barrier(0);
    [d.read_u64(word(0)), d.read_u64(word(1))]
}

#[test]
fn writers_of_one_page_under_their_own_locks_keep_their_increments() {
    for kind in drf_rows() {
        for cfg in common::networks(config(2, 1, kind)) {
            for (engine, results) in checked_on_both_engines!(&cfg, |d| own_lock_increments(d)) {
                assert_eq!(results, [[INCREMENTS; 2]; 2], "{kind} on {engine}");
            }
        }
    }
}

const N: usize = 64;

/// A 2-iteration Jacobi-style stencil over one shared row, block
/// partitioned, with multiple writers of each page: buffer A at page 0,
/// buffer B at page 2 (page 1 pads). Returns the sum of this node's
/// block of A after two steps.
fn mini_stencil(d: &Dsm<'_, impl Engine>) -> u64 {
    let ps = os_page_size();
    let a = |i: usize| GlobalAddr(i * 8);
    let b = |i: usize| GlobalAddr(2 * ps + i * 8);
    let chunk = N / 4;
    let (lo, hi) = (rank(d) * chunk, (rank(d) + 1) * chunk);
    for i in lo..hi {
        d.write_u64(a(i), (i * i % 97) as u64);
    }
    d.barrier(0);
    for step in 0..2 {
        let (src, dst): (&dyn Fn(usize) -> GlobalAddr, &dyn Fn(usize) -> GlobalAddr) =
            if step % 2 == 0 { (&a, &b) } else { (&b, &a) };
        for i in lo..hi {
            let left = if i == 0 { 0 } else { d.read_u64(src(i - 1)) };
            let right = if i == N - 1 {
                0
            } else {
                d.read_u64(src(i + 1))
            };
            let cur = d.read_u64(src(i));
            d.write_u64(dst(i), (left + right + cur) / 3);
        }
        d.barrier(0);
    }
    (lo..hi).map(|i| d.read_u64(a(i))).sum::<u64>()
}

#[test]
fn twin_diff_mini_stencil_matches_sequential() {
    // Sequential reference.
    let mut av: Vec<u64> = (0..N).map(|i| (i * i % 97) as u64).collect();
    let mut bv = vec![0u64; N];
    for _ in 0..2 {
        for i in 0..N {
            let l = if i == 0 { 0 } else { av[i - 1] };
            let r = if i == N - 1 { 0 } else { av[i + 1] };
            bv[i] = (l + r + av[i]) / 3;
        }
        std::mem::swap(&mut av, &mut bv);
    }
    let chunk = N / 4;
    let want: Vec<u64> = (0..4)
        .map(|m| av[m * chunk..(m + 1) * chunk].iter().sum())
        .collect();
    for kind in drf_rows() {
        for cfg in common::networks(config(4, 4, kind)) {
            for (engine, sums) in checked_on_both_engines!(&cfg, |d| mini_stencil(d)) {
                assert_eq!(sums, want, "{kind} on {engine}");
            }
        }
    }
}
