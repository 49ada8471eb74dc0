//! Multiple writers of one real page: cluster `lrc` on threads of this
//! process. A write fault twins the page and the release ships a diff,
//! so writers of different bytes of one page keep their bytes when
//! barriers or different locks order them.

use dsm_core::{run_in_threads, ClusterDsm, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_vm::os_page_size;

fn lrc(nodes: u32, pages: usize) -> DsmConfig {
    let ps = os_page_size();
    DsmConfig::new(nodes, ProtocolKind::Lrc)
        .heap_bytes(pages * ps)
        .page_size(ps)
}

fn rank(d: &ClusterDsm<'_>) -> usize {
    d.id().0 as usize
}

#[test]
fn twin_diff_merges_concurrent_writers_of_one_page() {
    let quarter = os_page_size() / 4;
    let results = run_in_threads(&lrc(4, 2), |d| {
        let me = rank(d);
        // All four nodes write disjoint quarters of page 0 concurrently
        // (false sharing): the diffs must merge all of them.
        for i in 0..quarter / 8 {
            d.write_u64(GlobalAddr(me * quarter + i * 8), (me * 1000 + i) as u64);
        }
        d.barrier(0);
        // Everyone checks everyone's quarter.
        (0..4).all(|m| {
            (0..quarter / 8)
                .all(|i| d.read_u64(GlobalAddr(m * quarter + i * 8)) == (m * 1000 + i) as u64)
        })
    });
    assert_eq!(results, [true; 4]);
}

#[test]
fn twin_diff_multiple_barrier_rounds() {
    let results = run_in_threads(&lrc(2, 2), |d| {
        for round in 0..5u64 {
            // Alternate writers of a shared accumulator.
            if rank(d) as u64 == round % 2 {
                let v = d.read_u64(GlobalAddr(0));
                d.write_u64(GlobalAddr(0), v + round + 1);
            }
            d.barrier(0);
        }
        d.read_u64(GlobalAddr(0))
    });
    // 1+2+3+4+5 = 15 regardless of which node did which round.
    assert_eq!(results, [15, 15]);
}

/// The reactor raised view pages after dispatching a datagram, under a
/// running program: a store racing the install landed with no fault, so
/// no twin and no write notice, and in 9 of 10 runs a round's write was
/// lost. Raising rights only where the program is parked fixed it.
#[test]
fn turn_taking_writers_of_one_page_lose_no_round() {
    const ROUNDS: u64 = 3000;
    let results = run_in_threads(&lrc(2, 1), |d| {
        for round in 0..ROUNDS {
            if rank(d) as u64 == round % 2 {
                let v = d.read_u64(GlobalAddr(0));
                d.write_u64(GlobalAddr(0), v + round + 1);
            }
            d.barrier(0);
        }
        d.read_u64(GlobalAddr(0))
    });
    let want = ROUNDS * (ROUNDS + 1) / 2;
    assert_eq!(results, [want, want]);
}

/// Two nodes each increment their own word of one page under their own
/// lock, with nothing ordering one node's writes against the other's
/// until the closing barrier.
#[test]
fn writers_of_one_page_under_their_own_locks_keep_their_increments() {
    const INCREMENTS: u64 = 200;
    let results = run_in_threads(&lrc(2, 1), |d| {
        let me = rank(d);
        let word = GlobalAddr(me * 8);
        for _ in 0..INCREMENTS {
            d.with_lock(me as u32, |d| {
                let v = d.read_u64(word);
                d.write_u64(word, v + 1);
            });
        }
        d.barrier(0);
        [d.read_u64(GlobalAddr(0)), d.read_u64(GlobalAddr(8))]
    });
    assert_eq!(results, [[INCREMENTS; 2]; 2]);
}

#[test]
fn twin_diff_mini_stencil_matches_sequential() {
    // A 2-iteration Jacobi-style stencil over one shared row, block
    // partitioned, with multiple writers of each page.
    const N: usize = 64;
    let ps = os_page_size();
    // Buffer A at page 0, buffer B at page 2 (page 1 pads).
    let a = |i: usize| GlobalAddr(i * 8);
    let b = |i: usize| GlobalAddr(2 * ps + i * 8);
    let results = run_in_threads(&lrc(4, 4), |d| {
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
        // The result lives in A after two steps.
        (lo..hi).map(|i| d.read_u64(a(i))).sum::<u64>()
    });

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
    for (m, &got) in results.iter().enumerate() {
        let want: u64 = av[m * chunk..(m + 1) * chunk].iter().sum();
        assert_eq!(got, want, "node {m}");
    }
}
