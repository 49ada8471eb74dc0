//! The coherence oracle: every application kernel must produce its
//! sequential reference's result under every protocol × node count in
//! the matrix. This is the strongest end-to-end correctness statement
//! in the repository — a wrong invalidation, a lost diff, or a stale
//! piggyback shows up here as a checksum mismatch or a deadlock.

use dsm_apps::{false_sharing, fft, gauss, jacobi, matmul, sor, sort, taskqueue, tsp};
use dsm_core::{DsmConfig, EntryBinding, ProtocolKind};

const NODE_COUNTS: [u32; 3] = [1, 2, 5];

fn cfg(n: u32, proto: ProtocolKind, heap: usize) -> DsmConfig {
    DsmConfig::new(n, proto)
        .heap_bytes(heap)
        .page_size(256)
        .max_events(20_000_000)
}

#[test]
fn sor_matches_reference_everywhere() {
    let p = sor::SorParams::small();
    for proto in ProtocolKind::EVERY {
        for n in NODE_COUNTS {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes()), |dsm| sor::run(dsm, &p));
            for (i, &got) in res.results.iter().enumerate() {
                let want = sor::reference_block_sum(&p, n as usize, i);
                assert!(
                    (got - want).abs() < 1e-9,
                    "sor {proto} n={n} node {i}: got {got}, want {want}"
                );
            }
        }
    }
}

#[test]
fn jacobi_matches_reference_everywhere() {
    let p = jacobi::JacobiParams::small();
    for proto in ProtocolKind::EVERY {
        for n in NODE_COUNTS {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes()), |dsm| jacobi::run(dsm, &p));
            for (i, &got) in res.results.iter().enumerate() {
                let want = jacobi::reference_block_sum(&p, n as usize, i);
                assert!(
                    (got - want).abs() < 1e-9,
                    "jacobi {proto} n={n} node {i}: got {got}, want {want}"
                );
            }
        }
    }
}

#[test]
fn matmul_matches_reference_everywhere() {
    let p = matmul::MatmulParams::small();
    for proto in ProtocolKind::EVERY {
        for n in NODE_COUNTS {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes()), |dsm| matmul::run(dsm, &p));
            for (i, &got) in res.results.iter().enumerate() {
                let want = matmul::reference_block_sum(&p, n as usize, i);
                assert!(
                    (got - want).abs() < 1e-9,
                    "matmul {proto} n={n} node {i}: got {got}, want {want}"
                );
            }
        }
    }
}

#[test]
fn gauss_matches_reference_everywhere() {
    let p = gauss::GaussParams {
        n: 16,
        row_align: 256,
    };
    let want = gauss::reference(&p);
    for proto in ProtocolKind::EVERY {
        for n in NODE_COUNTS {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes()), |dsm| gauss::run(dsm, &p));
            for (i, got) in res.results.iter().enumerate() {
                let close = got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9);
                assert!(close, "gauss {proto} n={n} node {i}: {got:?} vs {want:?}");
            }
        }
    }
}

#[test]
fn fft_matches_reference_everywhere() {
    let p = fft::FftParams { rows: 8, cols: 16 };
    for proto in ProtocolKind::EVERY {
        for n in [1u32, 2, 4] {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes()), |dsm| fft::run(dsm, &p));
            for (i, &got) in res.results.iter().enumerate() {
                let want = fft::reference_block_sum(&p, n as usize, i);
                assert!(
                    (got - want).abs() < 1e-9,
                    "fft {proto} n={n} node {i}: got {got}, want {want}"
                );
            }
        }
    }
}

#[test]
fn taskqueue_executes_each_task_exactly_once() {
    let p = taskqueue::TaskQueueParams::small();
    let (want_sum, want_xor) = taskqueue::expected_digest(&p);
    for proto in ProtocolKind::EVERY {
        for n in NODE_COUNTS {
            let (lock, addr, len) = p.binding();
            let mut c = cfg(n, proto, p.heap_bytes());
            c.bindings = vec![EntryBinding { lock, addr, len }];
            let res = dsm_core::run_dsm(&c, |dsm| taskqueue::run(dsm, &p));
            let total: u64 = res.results.iter().map(|r| r.executed).sum();
            let sum: u64 = res.results.iter().map(|r| r.id_sum).sum();
            let xor: u64 = res.results.iter().fold(0, |a, r| a ^ r.id_xor);
            assert_eq!(total, p.tasks as u64, "{proto} n={n}: task count");
            assert_eq!(sum, want_sum, "{proto} n={n}: id sum");
            assert_eq!(xor, want_xor, "{proto} n={n}: id xor");
        }
    }
}

#[test]
fn tsp_finds_the_optimal_tour_everywhere() {
    let p = tsp::TspParams::small();
    let want = tsp::reference(&p);
    for proto in ProtocolKind::EVERY {
        for n in NODE_COUNTS {
            let (lock, addr, len) = p.binding();
            let mut c = cfg(n, proto, p.heap_bytes());
            c.bindings = vec![EntryBinding { lock, addr, len }];
            let res = dsm_core::run_dsm(&c, |dsm| tsp::run(dsm, &p));
            for (i, &got) in res.results.iter().enumerate() {
                assert_eq!(got, want, "tsp {proto} n={n} node {i}");
            }
        }
    }
}

#[test]
fn sort_produces_sorted_permutation_everywhere() {
    let p = sort::SortParams::small();
    let want = sort::reference(&p);
    // Buckets of different nodes share pages.
    for proto in ProtocolKind::every_that(|facts| facts.sub_page_writers) {
        for n in NODE_COUNTS {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes(n as usize)), |dsm| {
                let digest = sort::run(dsm, &p);
                let out = if dsm.id().0 == 0 {
                    sort::read_output(dsm, &p)
                } else {
                    vec![]
                };
                (digest, out)
            });
            let out = &res.results[0].1;
            assert_eq!(out, &want, "sort {proto} n={n}");
        }
    }
}

#[test]
fn false_sharing_counters_stay_private() {
    let p = false_sharing::FalseSharingParams::small();
    // Every node's counter shares a page with its neighbours'.
    for proto in ProtocolKind::every_that(|facts| facts.sub_page_writers) {
        for n in NODE_COUNTS {
            let res = dsm_core::run_dsm(&cfg(n, proto, p.heap_bytes(n as usize)), |dsm| {
                false_sharing::run(dsm, &p)
            });
            for (i, &v) in res.results.iter().enumerate() {
                assert_eq!(v, p.iters as u64, "{proto} n={n} node {i}");
            }
        }
    }
}
