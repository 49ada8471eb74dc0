//! The app table: each kernel's configuration, program and verdict in
//! one place, read by `dsmrun`, `dsm-cluster` and the oracle tests. A
//! program is written once over `&Dsm<'_, impl Engine>`, so the same
//! op sequence runs in the simulator and on real pages, and is judged
//! the same way on both.

use crate::chase::{self, ChaseElem, ChaseParams};
use crate::fft::{self, FftParams};
use crate::gauss::{self, GaussParams};
use crate::jacobi::{self, JacobiParams};
use crate::kv::{self, KvParams};
use crate::matmul::{self, MatmulParams};
use crate::sor::{self, SorParams};
use crate::sort::{self, SortParams};
use crate::taskqueue::{self, TaskQueueParams};
use crate::tsp::{self, TspParams};
use dsm_core::{Dsm, DsmConfig, Dur, Engine};
use dsm_obj::DsmBox;

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

/// An app's parameters: which program runs, at what size.
enum Job {
    Sor(SorParams),
    Jacobi(JacobiParams),
    Matmul(MatmulParams),
    Gauss(GaussParams),
    Fft(FftParams),
    Sort(SortParams),
    TaskQueue(TaskQueueParams),
    Tsp(TspParams),
    /// With its chains of allocated objects under a protocol that
    /// answers object ops, which only the simulator runs.
    Chase(ChaseParams, Option<Vec<Vec<DsmBox<ChaseElem>>>>),
    Kv(KvParams),
}

/// One app configured for one machine.
pub struct Run {
    /// The machine, with the heap, entry bindings and objects the app
    /// needs.
    pub cfg: DsmConfig,
    job: Job,
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
    let nodes = cfg.nnodes as usize;
    let (cfg, job) = match app {
        "sor" => {
            let p = SorParams {
                n: at_least_2(128)?,
                iters: 3,
                omega: 1.25,
            };
            (cfg.heap_bytes(p.heap_bytes()), Job::Sor(p))
        }
        "jacobi" => {
            let p = JacobiParams {
                n: at_least_2(64)?,
                iters: 3,
            };
            (cfg.heap_bytes(p.heap_bytes()), Job::Jacobi(p))
        }
        "matmul" => {
            let p = MatmulParams { n: or(64) };
            (cfg.heap_bytes(p.heap_bytes()), Job::Matmul(p))
        }
        "gauss" => {
            let p = GaussParams {
                n: or(64),
                row_align: cfg.page_size,
            };
            (cfg.heap_bytes(p.heap_bytes()), Job::Gauss(p))
        }
        "fft" => {
            let s = or(64);
            if !s.is_power_of_two() {
                return Err(format!("--app fft needs a power-of-two --size, not {s}"));
            }
            let p = FftParams { rows: s, cols: s };
            (cfg.heap_bytes(p.heap_bytes()), Job::Fft(p))
        }
        "sort" => {
            let p = SortParams {
                n: or(4096),
                seed: 7,
            };
            (cfg.heap_bytes(p.heap_bytes(nodes)), Job::Sort(p))
        }
        "taskqueue" => {
            let p = TaskQueueParams {
                tasks: or(64),
                task_time: Dur::millis(2),
                produce_time: Dur::micros(100),
                poll: Dur::micros(500),
            };
            let (lock, addr, len) = p.binding();
            let cfg = cfg.heap_bytes(p.heap_bytes()).bind(lock, addr, len);
            (cfg, Job::TaskQueue(p))
        }
        "tsp" => {
            let p = TspParams {
                cities: or(8),
                seed: 42,
                capacity: 1 << 12,
                poll: Dur::micros(500),
            };
            let (lock, addr, len) = p.binding();
            let cfg = cfg.heap_bytes(p.heap_bytes()).bind(lock, addr, len);
            (cfg, Job::Tsp(p))
        }
        "chase" => {
            let p = ChaseParams {
                chain_len: or(32),
                rounds: 8,
                think: Dur::micros(5),
            };
            let mut cfg = cfg.heap_bytes(p.heap_bytes(nodes));
            // Under a protocol that answers object ops, `chase` runs
            // over allocated objects (E22's workload).
            let chains = cfg.protocol.facts().object_ops.is_ok().then(|| {
                let (heap, chains) = chase::build_obj_chains(&p, cfg.nnodes);
                cfg.objects = heap.table();
                chains
            });
            (cfg, Job::Chase(p, chains))
        }
        "kv" => {
            let p = KvParams {
                keys: 512,
                ops_per_node: or(1200),
                read_pct: 80,
                skew: 0.99,
                stripes: 16,
                seed: 21,
            };
            let cfg = p
                .bindings()
                .fold(cfg.heap_bytes(p.heap_bytes()), |cfg, (lock, addr, len)| {
                    cfg.bind(lock, addr, len)
                });
            (cfg, Job::Kv(p))
        }
        other => return Err(format!("unknown app {other} (one of: {})", APPS.join(" "))),
    };
    // Of the apps, `kv`, `sort` and `chase` (whose chains interleave
    // within pages) have nodes writing distinct bytes of one page with
    // nothing but a later barrier between them.
    let shares_pages = matches!(job, Job::Kv(_) | Job::Sort(_) | Job::Chase(..));
    if let (true, Err(why)) = (shares_pages, cfg.protocol.facts().sub_page_writers) {
        return Err(format!(
            "--app {app} cannot run under `{}`: its nodes write distinct bytes of one page \
             concurrently — {why}",
            cfg.protocol
        ));
    }
    Ok(Run { cfg, job })
}

/// `x` as one word.
fn bits(x: f64) -> Words {
    vec![x.to_bits()]
}

/// The one `f64` a rank returned.
fn scalar(words: &Words) -> Option<f64> {
    match words[..] {
        [x] => Some(f64::from_bits(x)),
        _ => None,
    }
}

impl Run {
    /// What every rank runs, on either engine.
    pub fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        match &self.job {
            Job::Sor(p) => bits(sor::run(d, p)),
            Job::Jacobi(p) => bits(jacobi::run(d, p)),
            Job::Matmul(p) => bits(matmul::run(d, p)),
            Job::Gauss(p) => gauss::run(d, p).into_iter().map(f64::to_bits).collect(),
            Job::Fft(p) => bits(fft::run(d, p)),
            Job::Sort(p) => sort::run(d, p),
            Job::TaskQueue(p) => {
                let r = taskqueue::run(d, p);
                vec![r.executed, r.id_sum, r.id_xor]
            }
            Job::Tsp(p) => bits(tsp::run(d, p)),
            Job::Chase(p, _) => vec![chase::run_pages(d, p)],
            Job::Kv(p) => vec![kv::run(d, p)],
        }
    }

    /// What every rank runs in the simulator: [`Run::program`], or
    /// `chase` over objects.
    pub fn sim_program(&self, d: &Dsm<'_>) -> Words {
        match &self.job {
            Job::Chase(p, Some(chains)) => vec![chase::run_obj(d, p, chains)],
            _ => self.program(d),
        }
    }

    /// The app's own check of every rank's result against its
    /// sequential reference.
    pub fn verdict(&self, results: &[Words]) -> bool {
        let nodes = results.len();
        let close = |got: f64, want: f64, tol: f64| (got - want).abs() < tol;
        let block_sums = |want: &dyn Fn(usize) -> f64, tol| {
            results
                .iter()
                .enumerate()
                .all(|(i, w)| scalar(w).is_some_and(|got| close(got, want(i), tol)))
        };
        match &self.job {
            Job::Sor(p) => block_sums(&|i| sor::reference_block_sum(p, nodes, i), 1e-9),
            Job::Jacobi(p) => block_sums(&|i| jacobi::reference_block_sum(p, nodes, i), 1e-9),
            Job::Matmul(p) => block_sums(&|i| matmul::reference_block_sum(p, nodes, i), 1e-9),
            // Its sums, and their rounding, grow with the grid.
            Job::Fft(p) => results.iter().enumerate().all(|(i, w)| {
                let want = fft::reference_block_sum(p, nodes, i);
                scalar(w).is_some_and(|got| close(got, want, 1e-9 * want.abs().max(1.0)))
            }),
            Job::Gauss(p) => {
                let want = gauss::reference(p);
                results.iter().all(|x| {
                    x.len() == want.len()
                        && x.iter()
                            .zip(&want)
                            .all(|(&got, &w)| close(f64::from_bits(got), w, 1e-9))
                })
            }
            Job::Sort(p) => results[0] == sort::reference(p),
            Job::TaskQueue(p) => {
                let (sum, xor) = taskqueue::expected_digest(p);
                self.comparable(results) == [vec![p.tasks as u64, sum, xor]]
            }
            Job::Tsp(p) => {
                let want = tsp::reference(p);
                results.iter().all(|w| scalar(w) == Some(want))
            }
            Job::Chase(p, _) => results.iter().all(|w| w == &[p.expected()]),
            Job::Kv(p) => {
                let want = kv::reference_digest(p, nodes);
                results.iter().all(|w| w == &[want])
            }
        }
    }

    /// What of a run must equal another engine's run: every rank's
    /// result — but of `taskqueue`, whose split of the tasks between
    /// ranks is the schedule's, only the aggregate (tasks run, id sum,
    /// id xor).
    pub fn comparable(&self, results: &[Words]) -> Vec<Words> {
        match self.job {
            Job::TaskQueue(_) => {
                let agg = results.iter().fold(vec![0u64; 3], |agg, w| {
                    vec![agg[0] + w[0], agg[1].wrapping_add(w[1]), agg[2] ^ w[2]]
                });
                vec![agg]
            }
            _ => results.to_vec(),
        }
    }
}
