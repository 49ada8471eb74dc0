//! One program, two engines: every app of the table runs under every
//! page-fault-driven protocol, at 2 and at 4 ranks, on real pages — a
//! cluster as threads of this process — and in the simulator. On real
//! pages it must pass the app's own verdict and come out as the
//! simulator's run does: rank by rank, or for `taskqueue`, whose split
//! of the tasks is the schedule's, in aggregate.

use dsm_apps::App;
use dsm_core::{run_dsm, run_in_threads, DsmConfig, ProtocolKind};

/// Every row cluster mode runs, asked of the rows.
fn page_fault_driven() -> Vec<ProtocolKind> {
    let rows: Vec<_> = ProtocolKind::EVERY
        .into_iter()
        .filter(|kind| kind.facts().page_fault_driven.is_ok())
        .collect();
    assert!(rows.len() >= 2, "{rows:?}");
    rows
}

/// `app` at `size` under every page-fault-driven row, on 2 ranks and on
/// 4: with four, locks hand off between more than two holders, and a
/// barrier waits for more than one peer.
fn on_both_engines(app: &str, size: usize) {
    for (proto, nodes) in page_fault_driven()
        .into_iter()
        .flat_map(|p| [(p, 2), (p, 4)])
    {
        let cfg = DsmConfig::new(nodes, proto).page_size(dsm_vm::os_page_size());
        let run = dsm_apps::plan(app, size, cfg).expect("every app runs on every such row");
        let pages = run_in_threads(&run.cfg, |d| run.app.program(d)).results;
        let sim = run_dsm(&run.cfg, |d| run.app.program(d)).results;
        assert!(
            run.app.verdict(&pages),
            "{app} {proto} n={nodes}: {pages:?}"
        );
        assert_eq!(
            run.app.comparable(&pages),
            run.app.comparable(&sim),
            "{app} {proto} n={nodes}: real pages vs simulator"
        );
    }
}

#[test]
fn sor_runs_alike_on_both_engines() {
    on_both_engines("sor", 16);
}

#[test]
fn jacobi_runs_alike_on_both_engines() {
    on_both_engines("jacobi", 16);
}

#[test]
fn matmul_runs_alike_on_both_engines() {
    on_both_engines("matmul", 16);
}

#[test]
fn gauss_runs_alike_on_both_engines() {
    on_both_engines("gauss", 8);
}

#[test]
fn fft_runs_alike_on_both_engines() {
    on_both_engines("fft", 8);
}

#[test]
fn sort_runs_alike_on_both_engines() {
    on_both_engines("sort", 256);
}

#[test]
fn taskqueue_runs_alike_on_both_engines() {
    on_both_engines("taskqueue", 16);
}

#[test]
fn tsp_runs_alike_on_both_engines() {
    on_both_engines("tsp", 6);
}

#[test]
fn chase_runs_alike_on_both_engines() {
    on_both_engines("chase", 16);
}

#[test]
fn kv_runs_alike_on_both_engines() {
    on_both_engines("kv", 60);
}
