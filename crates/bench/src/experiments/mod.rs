//! The experiment suite: one function per table/figure in
//! EXPERIMENTS.md. Each prints its table(s) on stdout in the fixed
//! format of [`crate::table`]. [`REGISTRY`] names them; the `exp` binary
//! is a thin wrapper over it. An experiment that runs an app of the
//! table gives its own params to `checked`, which holds every run to
//! the app's verdict.

use crate::table::{print_table, xs_of, Series};
use dsm_apps::{App, Run, Words};
use dsm_core::trace::Sink;
use dsm_core::{DsmConfig, RunResult};
use std::fmt::Display;

mod ablation;
mod batching;
mod eras;
mod faults;
mod memory;
mod meta;
mod objects;
mod scaling;
mod sync_and_vm;
mod zipf;

pub use ablation::{e13_nic_ablation, e14_lrc_lock_ablation};
pub use batching::e17_batching;
pub use eras::e20_eras;
pub use faults::{e16_faults, e19_crash};
pub use memory::{e05_false_sharing, e06_erc_vs_lrc, e09_diffs};
pub use meta::e18_lrc_meta;
pub use objects::e22_obj;
pub use scaling::{
    e01_managers, e02_sor, e02_sor_n1024, e03_matmul, e04_gauss, e11_entry_vs_lrc, e12_tsp, e15_fft,
};
pub use sync_and_vm::{e07_locks, e08_barriers, e10_vm_costs};
pub use zipf::e21_zipf;

/// Experiment sizing: `Quick` keeps every experiment under ~a second
/// (used by the smoke tests); `Full` reproduces the report shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A named experiment: what `exp <name>` looks up and runs.
pub type Experiment = (&'static str, fn(Scale));

/// The suite, in report order, under the names `exp <name>` takes. A
/// new experiment is one row here: [`run_all`] and `exp --list` follow.
pub const REGISTRY: &[Experiment] = &[
    ("e01_managers", e01_managers),
    ("e02_sor_speedup", e02_sor),
    ("e03_matmul_speedup", e03_matmul),
    ("e04_gauss_speedup", e04_gauss),
    ("e05_false_sharing", e05_false_sharing),
    ("e06_erc_vs_lrc", e06_erc_vs_lrc),
    ("e07_locks", e07_locks),
    ("e08_barriers", e08_barriers),
    ("e09_diffs", e09_diffs),
    ("e10_vm_costs", e10_vm_costs),
    ("e11_entry_vs_lrc", e11_entry_vs_lrc),
    ("e12_tsp", e12_tsp),
    ("e13_nic_ablation", e13_nic_ablation),
    ("e14_lrc_lock_ablation", e14_lrc_lock_ablation),
    ("e15_fft", e15_fft),
    ("e16_faults", e16_faults),
    ("e17_batching", e17_batching),
    ("e18_lrc_meta", e18_lrc_meta),
    ("e19_crash", e19_crash),
    ("e20_eras", e20_eras),
    ("e21_zipf", e21_zipf),
    ("e22_obj", e22_obj),
];

/// Runnable by name but outside the suite: the N=1024 smoke point has
/// a wall-clock budget of its own, so [`run_all`] leaves it out.
pub const STANDALONE: &[Experiment] = &[("e02_sor_n1024", e02_sor_n1024)];

/// Run every experiment of [`REGISTRY`] at the given scale.
pub fn run_all(scale: Scale) {
    for (_, run) in REGISTRY {
        run(scale);
    }
}

/// `app` on `cfg`'s machine in the simulator, held to the app's own
/// verdict: no row of experiment `exp` comes from a run that computed
/// the wrong answer. A refused shape or a failed verdict panics, naming
/// the experiment, the app, the protocol and the node count.
fn checked<A: App>(exp: &str, app: A, cfg: DsmConfig) -> RunResult<Words> {
    checked_traced(exp, app, cfg, ()).0
}

/// [`checked`], handing every record of the run to `sink`.
fn checked_traced<A: App, S>(exp: &str, app: A, cfg: DsmConfig, sink: S) -> (RunResult<Words>, S)
where
    S: Sink + 'static,
{
    let what = format!(
        "{exp}: {} under {} on {} nodes",
        app.name(),
        cfg.protocol,
        cfg.nnodes
    );
    let run = Run::new(app, cfg).unwrap_or_else(|why| panic!("{what}: refused: {why}"));
    let (res, sink) = dsm_core::run_traced(&run.cfg, |d| run.app.sim_program(d), sink);
    assert!(run.app.verdict(&res.results), "{what}: wrong result");
    (res, sink)
}

/// What one table reads of each run, given its column's first run
/// too: the tail of the table's title, and the figure.
type Metric<'a, V = Words> = Reads<'a, RunResult<V>>;

/// What one table reads of each `R` a run left.
type Reads<'a, R> = (&'a str, &'a dyn Fn(&R, &R) -> f64);

/// Completion time in virtual ms.
fn ms<V>() -> Metric<'static, V> {
    (" — completion time (ms)", &|_, r| {
        r.end_time.as_millis_f64()
    })
}

/// Messages sent.
fn msgs<V>() -> Metric<'static, V> {
    (" — total messages", &|_, r| r.stats.total_msgs() as f64)
}

/// T(first x) / T(x).
fn speedup<V>() -> Metric<'static, V> {
    (" — speedup", &|first, r| {
        first.end_time.as_millis_f64() / r.end_time.as_millis_f64()
    })
}

/// One run per x of `xs` and per column of `labels`, `run(x, column)`;
/// then one table per metric, titled `title` and the metric's tail, a
/// row per x and a column per label. Runs go column by column, each
/// column's xs in order. Returns the runs, `runs[column][x]`.
fn sweep<X: Copy + Display, R>(
    title: &str,
    x_label: &str,
    xs: &[X],
    labels: &[&str],
    metrics: &[Reads<R>],
    mut run: impl FnMut(X, usize) -> R,
) -> Vec<Vec<R>> {
    let runs: Vec<Vec<_>> = (0..labels.len())
        .map(|c| xs.iter().map(|&x| run(x, c)).collect())
        .collect();
    for (name, metric) in metrics {
        let series: Vec<Series> = labels
            .iter()
            .zip(&runs)
            .map(|(label, runs)| Series {
                label: label.to_string(),
                values: runs.iter().map(|r| metric(&runs[0], r)).collect(),
            })
            .collect();
        print_table(&format!("{title}{name}"), x_label, &xs_of(xs), &series);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_apps::sor::SorParams;
    use dsm_core::{Dsm, Engine, ProtocolKind};
    use std::ops::Range;

    /// SOR judged against one more sweep than it ran: a wrong result.
    struct OneSweepShort(SorParams);

    impl App for OneSweepShort {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
            self.0.machine(cfg)
        }
        fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
            self.0.program(d)
        }
        fn verdict(&self, results: &[Words]) -> bool {
            let more = SorParams {
                iters: self.0.iters + 1,
                ..self.0
            };
            more.verdict(results)
        }
        fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
            self.0.writes(nodes, rank)
        }
    }

    const P: SorParams = SorParams {
        n: 16,
        iters: 2,
        omega: 1.25,
    };

    #[test]
    #[should_panic(expected = "E0: sor under lrc on 2 nodes: wrong result")]
    fn a_wrong_result_names_the_experiment_app_protocol_and_nodes() {
        checked("E0", OneSweepShort(P), DsmConfig::new(2, ProtocolKind::Lrc));
    }

    #[test]
    #[should_panic(expected = "E0: sor under scabd on 2 nodes: refused")]
    fn a_refused_shape_names_them_too() {
        checked("E0", P, DsmConfig::new(2, ProtocolKind::Scabd));
    }
}
