//! The app table: each kernel's machine, program and verdict in one
//! place — one [`App`] per kernel, implemented in the kernel's own
//! module — read by `dsmrun`, `dsm-cluster`, the experiments and the
//! oracle tests. A program is written once over `&Dsm<'_, impl
//! Engine>`, so the same op sequence runs in the simulator and on real
//! pages, and is judged the same way on both.

use crate::chase::{Chase, ChaseParams};
use crate::fft::FftParams;
use crate::gauss::GaussParams;
use crate::jacobi::JacobiParams;
use crate::kv::KvParams;
use crate::matmul::MatmulParams;
use crate::sor::SorParams;
use crate::sort::SortParams;
use crate::taskqueue::TaskQueueParams;
use crate::tsp::TspParams;
use dsm_core::{Dsm, DsmConfig, Dur, Engine};
use std::collections::HashMap;
use std::ops::Range;

/// Every app of the table, in `dsmrun --list` order.
pub const APPS: [&str; 10] = [
    "sor",
    "jacobi",
    "matmul",
    "gauss",
    "fft",
    "sort",
    "taskqueue",
    "tsp",
    "chase",
    "kv",
];

/// One rank's result as words, an `f64` by its bits: results compare
/// exactly across engines and cross a pipe as text.
pub type Words = Vec<u64>;

/// A kernel at one shape: the machine it needs, the program every rank
/// runs and the check of what the ranks return. Implemented by each
/// app's params type in the app's own module.
pub trait App: Sync {
    /// The name `--app` takes.
    fn name(&self) -> &'static str;

    /// `cfg` with what the app needs of the machine: its heap, its
    /// entry bindings, its objects. An app keeps what it builds here
    /// for its program (`chase`'s chains of objects).
    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig;

    /// What every rank runs, on either engine.
    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words;

    /// What every rank runs in the simulator: [`App::program`], unless
    /// the app has a build over objects, which only the simulator runs.
    fn sim_program(&self, d: &Dsm<'_>) -> Words {
        self.program(d)
    }

    /// The app's own check of every rank's result against its
    /// sequential reference.
    fn verdict(&self, results: &[Words]) -> bool;

    /// What of a run must equal another engine's run: every rank's
    /// result, unless the split of the work between ranks is the
    /// schedule's.
    fn comparable(&self, results: &[Words]) -> Vec<Words> {
        results.to_vec()
    }

    /// The bytes rank `rank` of `nodes` writes with nothing but a
    /// barrier to order them against another rank's writes, every such
    /// write counted: what decides whether two ranks write one page.
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>>;
}

/// One app configured for one machine.
pub struct Run<A = TableApp> {
    /// The machine, with the heap, entry bindings and objects the app
    /// needs.
    pub cfg: DsmConfig,
    pub app: A,
}

impl<A: App> Run<A> {
    /// `app` on `cfg`'s machine, or why it cannot run there: under a
    /// row without `sub_page_writers`, two of its ranks write one page.
    pub fn new(mut app: A, cfg: DsmConfig) -> Result<Self, String> {
        let cfg = app.machine(cfg);
        if let Err(why) = cfg.protocol.facts().sub_page_writers {
            if let Some((a, b, page)) = shared_page(&app, cfg.nnodes as usize, cfg.page_size) {
                return Err(format!(
                    "{} cannot run under `{}` on {} nodes: ranks {a} and {b} both write page \
                     {page}, ordered by nothing but a barrier — {why}",
                    app.name(),
                    cfg.protocol,
                    cfg.nnodes
                ));
            }
        }
        Ok(Run { cfg, app })
    }
}

/// The first page two ranks write, and the two ranks.
fn shared_page(app: &impl App, nodes: usize, page: usize) -> Option<(usize, usize, usize)> {
    let mut writer = HashMap::new();
    for rank in 0..nodes {
        // An empty range (a rank without rows) writes no page.
        for bytes in app
            .writes(nodes, rank)
            .into_iter()
            .filter(|b| !b.is_empty())
        {
            for p in bytes.start / page..=(bytes.end - 1) / page {
                let first = *writer.entry(p).or_insert(rank);
                if first != rank {
                    return Some((first, rank, p));
                }
            }
        }
    }
    None
}

/// Every rank returned one `f64` within `tol(want)` of its own entry of
/// `want`.
pub(crate) fn sums_match(results: &[Words], want: &[f64], tol: impl Fn(f64) -> f64) -> bool {
    results.len() == want.len()
        && results.iter().zip(want).all(|(w, &want)| match w[..] {
            [got] => (f64::from_bits(got) - want).abs() < tol(want),
            _ => false,
        })
}

/// Every app of the table, by name: what [`plan`] builds.
pub enum TableApp {
    Sor(SorParams),
    Jacobi(JacobiParams),
    Matmul(MatmulParams),
    Gauss(GaussParams),
    Fft(FftParams),
    Sort(SortParams),
    TaskQueue(TaskQueueParams),
    Tsp(TspParams),
    Chase(Chase),
    Kv(KvParams),
}

/// The one dispatch from the table to an app: `$body` with `$a` bound
/// to the app `$table` holds.
macro_rules! each {
    ($table:expr, $a:ident => $body:expr) => {
        match $table {
            TableApp::Sor($a) => $body,
            TableApp::Jacobi($a) => $body,
            TableApp::Matmul($a) => $body,
            TableApp::Gauss($a) => $body,
            TableApp::Fft($a) => $body,
            TableApp::Sort($a) => $body,
            TableApp::TaskQueue($a) => $body,
            TableApp::Tsp($a) => $body,
            TableApp::Chase($a) => $body,
            TableApp::Kv($a) => $body,
        }
    };
}

impl App for TableApp {
    fn name(&self) -> &'static str {
        each!(self, a => a.name())
    }
    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        each!(self, a => a.machine(cfg))
    }
    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        each!(self, a => a.program(d))
    }
    fn sim_program(&self, d: &Dsm<'_>) -> Words {
        each!(self, a => a.sim_program(d))
    }
    fn verdict(&self, results: &[Words]) -> bool {
        each!(self, a => a.verdict(results))
    }
    fn comparable(&self, results: &[Words]) -> Vec<Words> {
        each!(self, a => a.comparable(results))
    }
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
        each!(self, a => a.writes(nodes, rank))
    }
}

/// Configure `app` at `size` (0: the app's default) on `cfg`'s machine,
/// or say in one sentence why it cannot run there.
///
/// `size` is the app's one scale knob: the grid or matrix side (`sor`,
/// `jacobi`, `matmul`, `gauss`, `fft`), keys (`sort`), tasks
/// (`taskqueue`), cities (`tsp`), chain length (`chase`), or operations
/// per node (`kv`, the E21 Zipf board).
pub fn plan(app: &str, size: usize, cfg: DsmConfig) -> Result<Run, String> {
    let or = |default| if size == 0 { default } else { size };
    // Smaller than this an app indexes outside its own grid.
    let at_least_2 = |default| match or(default) {
        1 => Err(format!("--app {app} needs --size of at least 2")),
        n => Ok(n),
    };
    let table = match app {
        "sor" => TableApp::Sor(SorParams {
            n: at_least_2(128)?,
            iters: 3,
            omega: 1.25,
        }),
        "jacobi" => TableApp::Jacobi(JacobiParams {
            n: at_least_2(64)?,
            iters: 3,
        }),
        "matmul" => TableApp::Matmul(MatmulParams { n: or(64) }),
        "gauss" => TableApp::Gauss(GaussParams {
            n: or(64),
            row_align: cfg.page_size,
        }),
        "fft" => match or(64) {
            s if s.is_power_of_two() => TableApp::Fft(FftParams { rows: s, cols: s }),
            s => return Err(format!("--app fft needs a power-of-two --size, not {s}")),
        },
        "sort" => TableApp::Sort(SortParams {
            n: or(4096),
            seed: 7,
        }),
        "taskqueue" => TableApp::TaskQueue(TaskQueueParams {
            tasks: or(64),
            task_time: Dur::millis(2),
            produce_time: Dur::micros(100),
            poll: Dur::micros(500),
        }),
        "tsp" => TableApp::Tsp(TspParams {
            cities: or(8),
            seed: 42,
            capacity: 1 << 12,
            poll: Dur::micros(500),
        }),
        "chase" => TableApp::Chase(Chase::from(ChaseParams {
            chain_len: or(32),
            rounds: 8,
            think: Dur::micros(5),
        })),
        "kv" => TableApp::Kv(KvParams {
            keys: 512,
            ops_per_node: or(1200),
            read_pct: 80,
            skew: 0.99,
            stripes: 16,
            seed: 21,
        }),
        other => return Err(format!("unknown app {other} (one of: {})", APPS.join(" "))),
    };
    Run::new(table, cfg).map_err(|why| format!("--app {why}"))
}
