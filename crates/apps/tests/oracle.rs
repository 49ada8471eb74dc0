//! The coherence oracle: every application kernel must produce its
//! sequential reference's result under every protocol × node count in
//! the matrix. This is the strongest end-to-end correctness statement
//! in the repository — a wrong invalidation, a lost diff, or a stale
//! piggyback shows up here as a checksum mismatch or a deadlock. The
//! apps, their machines and their verdicts are the app table's
//! (`dsm_apps::plan`), the same `dsmrun` and `dsm-cluster` run; a few
//! shapes the table does not build (a fourth iteration, other task
//! timings) run through the same [`Run`], and a non-square FFT grid is
//! held to 1e-9 absolute.

use dsm_apps::fft::{self, FftParams};
use dsm_apps::jacobi::JacobiParams;
use dsm_apps::sor::SorParams;
use dsm_apps::taskqueue::TaskQueueParams;
use dsm_apps::{false_sharing, App, Run};
use dsm_core::{Dsm, DsmConfig, Dur, ProtocolKind};

const NODE_COUNTS: [u32; 3] = [1, 2, 5];

fn cfg(n: u32, proto: ProtocolKind) -> DsmConfig {
    DsmConfig::new(n, proto)
        .page_size(256)
        .max_events(20_000_000)
}

/// The app `plan` configures under every protocol and node count: its
/// verdict holds, or the protocol's row says why the app cannot run
/// there.
fn oracle<A: App>(node_counts: &[u32], plan: impl Fn(DsmConfig) -> Result<Run<A>, String>) {
    for proto in ProtocolKind::EVERY {
        for &n in node_counts {
            let run = match plan(cfg(n, proto)) {
                Ok(run) => run,
                Err(why) => {
                    // Only the rows without sub-page writers refuse an
                    // app: one whose ranks write one page.
                    let row = proto.facts().sub_page_writers.expect_err(&why);
                    assert!(why.contains(row), "{proto}: {why}");
                    continue;
                }
            };
            let res = dsm_core::run_dsm(&run.cfg, |d| run.app.sim_program(d));
            assert!(
                run.app.verdict(&res.results),
                "{} {proto} n={n}: {:?}",
                run.app.name(),
                res.results
            );
        }
    }
}

/// A shape the table does not build: `program` under every protocol and
/// node count, each rank's block sum within 1e-9 of `want(nodes)[rank]`
/// — absolute, where the app's own verdict allows for rounding that
/// grows with the grid.
fn block_sums(
    node_counts: &[u32],
    heap: usize,
    program: impl Fn(&Dsm<'_>) -> f64 + Sync,
    want: impl Fn(usize) -> Vec<f64>,
) {
    for proto in ProtocolKind::EVERY {
        for &n in node_counts {
            let res = dsm_core::run_dsm(&cfg(n, proto).heap_bytes(heap), &program);
            let want = want(n as usize);
            for (i, (&got, &want)) in res.results.iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "{proto} n={n} node {i}: got {got}, want {want}"
                );
            }
        }
    }
}

/// The table's `app` at `size`.
fn table(app: &str, size: usize, node_counts: &[u32]) {
    oracle(node_counts, |cfg| dsm_apps::plan(app, size, cfg));
}

/// The table's shape, and a fourth iteration.
#[test]
fn sor_matches_reference_everywhere() {
    table("sor", 32, &NODE_COUNTS);
    let p = SorParams {
        n: 32,
        iters: 4,
        omega: 1.25,
    };
    oracle(&NODE_COUNTS, |cfg| Run::new(p, cfg));
}

/// The table's shape, and a fourth iteration.
#[test]
fn jacobi_matches_reference_everywhere() {
    table("jacobi", 24, &NODE_COUNTS);
    let p = JacobiParams { n: 24, iters: 4 };
    oracle(&NODE_COUNTS, |cfg| Run::new(p, cfg));
}

#[test]
fn matmul_matches_reference_everywhere() {
    table("matmul", 24, &NODE_COUNTS);
}

#[test]
fn gauss_matches_reference_everywhere() {
    table("gauss", 16, &NODE_COUNTS);
}

/// The table's square grid, and a grid whose row and column splits
/// differ, so that a mix-up of the two shows.
#[test]
fn fft_matches_reference_everywhere() {
    table("fft", 16, &[1, 2, 4]);
    let p = FftParams { rows: 8, cols: 16 };
    block_sums(
        &[1, 2, 4],
        p.heap_bytes(),
        |d| fft::run(d, &p),
        |n| fft::reference_block_sums(&p, n),
    );
}

/// Each task id is executed exactly once: the ids' sum and xor, and the
/// count of tasks run.
#[test]
fn taskqueue_executes_each_task_exactly_once() {
    table("taskqueue", 24, &NODE_COUNTS);
    // Longer tasks and quicker production: another interleaving of the
    // producer and the workers.
    let p = TaskQueueParams {
        tasks: 24,
        task_time: Dur::millis(5),
        produce_time: Dur::micros(50),
        poll: Dur::micros(500),
    };
    oracle(&NODE_COUNTS, |cfg| Run::new(p, cfg));
}

#[test]
fn tsp_finds_the_optimal_tour_everywhere() {
    table("tsp", 7, &NODE_COUNTS);
}

/// Buckets of different nodes share pages.
#[test]
fn sort_produces_sorted_permutation_everywhere() {
    table("sort", 256, &NODE_COUNTS);
}

/// The page build everywhere, the object build under `obj`.
#[test]
fn chase_counts_every_visit_everywhere() {
    table("chase", 16, &NODE_COUNTS);
}

#[test]
fn false_sharing_counters_stay_private() {
    let p = false_sharing::FalseSharingParams::small();
    // Every node's counter shares a page with its neighbours'.
    for proto in ProtocolKind::every_that(|facts| facts.sub_page_writers) {
        for n in NODE_COUNTS {
            let cfg = cfg(n, proto).heap_bytes(p.heap_bytes(n as usize));
            let res = dsm_core::run_dsm(&cfg, |dsm| false_sharing::run(dsm, &p));
            for (i, &v) in res.results.iter().enumerate() {
                assert_eq!(v, p.iters as u64, "{proto} n={n} node {i}");
            }
        }
    }
}
