//! Driver side of one workload: repeat it in fresh child processes
//! until the time is used, verify every repetition's results, and
//! reduce the repetitions to the metrics of `spec`.

use crate::child::ChildArgs;
use crate::fleet::{self, Rep};
use crate::spec::{Engine, Workload};
use crate::stats::{median, percentile};
use crate::{cluster, hostref, sim};
use dsm_apps::kv::{self, KvParams};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long a pass measures.
    pub seconds: f64,
    pub quick: bool,
    /// Where trace fragments go.
    pub out_dir: PathBuf,
    /// The CPUs the benchmark may use, ascending.
    pub cpus: Vec<usize>,
}

/// What one pass over one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, if any did.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the percentiles, for the printed report.
    pub counts: BTreeMap<String, usize>,
    /// Trace fragments of the last traced repetition.
    pub fragments: Vec<String>,
}

/// Cluster fleets per pass: each is a set-up and a window, so the
/// window is the pass's time split this many ways. A traced pass
/// alternates untraced and traced fleets.
const FLEETS_PLAIN: usize = 3;
const FLEETS_TRACED: usize = 4;

/// Time beyond its expected length that a repetition gets before the
/// watchdog kills it.
const WATCHDOG_SLACK: Duration = Duration::from_secs(30);

struct Runner<'a> {
    w: Workload,
    opts: &'a Options,
    window_s: f64,
}

impl Runner<'_> {
    fn child_args(&self, rank: usize, traced: bool) -> ChildArgs {
        let cpus = &self.opts.cpus;
        let (cpu, app_cpu) = match self.w.engine {
            // The driver sits on the first CPU; where there is a
            // second, the simulator gets one to itself.
            Engine::Sim => (cpus[cpus.len() - 1], cpus[cpus.len() - 1]),
            // A rank's application thread and its runtime threads sit
            // on different CPUs where there are two, as they would on
            // any real node. Sharing one, whether a request finds the
            // reactor awake or asleep in its 8 ms socket wait is up to
            // wake-up preemption, and throughput swings by a factor of
            // two between identical runs (README, "Pinning").
            Engine::Cluster => (cpus[(rank + 1) % cpus.len()], cpus[rank % cpus.len()]),
        };
        ChildArgs {
            workload: self.w.name.to_string(),
            seed: self.opts.seed,
            quick: self.opts.quick,
            traced,
            trace_out: traced.then(|| self.fragment_path(rank)),
            cpu,
            app_cpu,
            rank: rank as u32,
            window_s: self.window_s,
        }
    }

    fn fragment_path(&self, rank: usize) -> PathBuf {
        self.opts
            .out_dir
            .join(format!("{}.{rank}.fragment", self.w.name))
    }

    fn rep(&self, traced: bool) -> Result<Rep, String> {
        let (mode, procs) = match self.w.engine {
            Engine::Sim => ("child-sim", 1),
            Engine::Cluster => ("child-node", cluster::RANKS as usize),
        };
        let args: Vec<ChildArgs> = (0..procs).map(|r| self.child_args(r, traced)).collect();
        let watchdog = Duration::from_secs_f64(self.window_s) + WATCHDOG_SLACK;
        fleet::run(mode, &args, watchdog)
    }
}

/// Check a repetition's results; `Err` says what was wrong.
fn verify(
    w: Workload,
    opts: &Options,
    window_s: f64,
    rep: &Rep,
    want: &[u64],
) -> Result<(), String> {
    match w.name {
        "cluster_kv" => {
            let ops = rep.get("ops") as usize;
            let digests: Vec<u64> = rep.results.values().copied().collect();
            if digests.len() != cluster::RANKS as usize || ops % digests.len() != 0 {
                return Err(format!("{} ranks reported {ops} ops", digests.len()));
            }
            // Replay exactly the prefix of the streams that ran: the
            // warm-up round and the timed ones.
            let p = KvParams {
                ops_per_node: cluster::KV_ROUND + ops / digests.len(),
                ..cluster::kv_params(opts.seed, window_s)
            };
            let want = kv::reference_digest(&p, digests.len());
            match digests.iter().position(|&d| d != want) {
                None => Ok(()),
                Some(rank) => Err(format!(
                    "rank {rank} read back digest {:016x}, the replay gives {want:016x}",
                    digests[rank]
                )),
            }
        }
        "cluster_pages" => match rep.get("bad") as u64 {
            0 => Ok(()),
            bad => Err(format!("{bad} loads did not see the word stored")),
        },
        _ => {
            if rep.results.len() != want.len() {
                return Err(format!(
                    "{} of {} nodes reported",
                    rep.results.len(),
                    want.len()
                ));
            }
            match rep
                .results
                .iter()
                .find(|(&node, &got)| !sim::result_matches(w.name, got, want[node]))
            {
                None => Ok(()),
                Some((node, got)) => Err(format!(
                    "node {node} returned {got:016x}, the reference is {:016x}",
                    want[*node]
                )),
            }
        }
    }
}

/// Median over the repetitions of a per-repetition quantity.
fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    if reps.is_empty() {
        return 0.0;
    }
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

fn pooled(reps: &[Rep], name: &str) -> Vec<f64> {
    reps.iter().flat_map(|r| r.samples(name)).copied().collect()
}

/// How much slower than nominal the host-speed reference ran beside
/// a repetition.
struct Slowdown {
    /// Around the timed section: mean of the reference before and
    /// after it.
    timed: f64,
    /// During set-up: the reference before only.
    setup: f64,
}

/// A cluster fleet does not run the reference — its time is socket
/// waits, not CPU — and reads 1.
fn slowdown(w: Workload, r: &Rep) -> Slowdown {
    match w.engine {
        Engine::Sim => {
            let (pre, post) = (r.get("ref_pre_s"), r.get("ref_post_s"));
            Slowdown {
                timed: (pre + post) / 2.0 / hostref::NOMINAL_S,
                setup: pre / hostref::NOMINAL_S,
            }
        }
        Engine::Cluster => Slowdown {
            timed: 1.0,
            setup: 1.0,
        },
    }
}

/// The timed section of a repetition in reference seconds (host
/// seconds on the cluster).
fn ref_wall_s(w: Workload, r: &Rep) -> f64 {
    r.get("wall_s") / slowdown(w, r).timed
}

/// The verified repetitions of a pass: `(untraced, traced)`. Failures
/// are counted in `out`.
fn repetitions(
    runner: &Runner<'_>,
    traced: bool,
    fleets: usize,
    out: &mut Outcome,
) -> (Vec<Rep>, Vec<Rep>) {
    let (w, opts) = (runner.w, runner.opts);
    // The sequential references, computed once, beside the first
    // repetition and outside every timed section.
    let mut reference = (w.engine == Engine::Sim).then(|| {
        let (name, seed, quick) = (w.name, opts.seed, opts.quick);
        std::thread::spawn(move || sim::reference(name, seed, quick))
    });
    let mut want: Vec<u64> = Vec::new();

    let (mut plain, mut spans): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    // Each kind of repetition (untraced, traced) runs once at least.
    let kinds = 1 + usize::from(traced);
    for i in 0.. {
        let enough = match (w.engine, opts.quick) {
            (_, true) => i >= kinds,
            (Engine::Sim, false) => i >= kinds && started.elapsed().as_secs_f64() >= opts.seconds,
            (Engine::Cluster, false) => i >= fleets,
        };
        if enough {
            break;
        }
        let trace_this = traced && i % 2 == 1;
        // `Err` carries the operations to count as attempted and
        // failed: a repetition that dies is taken to have attempted
        // what the one before it did.
        let planned = plain.last().map_or(1, |r: &Rep| r.get("ops") as u64);
        let verdict = match runner.rep(trace_this) {
            Err(e) => Err((planned, e)),
            Ok(rep) => {
                if let Some(handle) = reference.take() {
                    want = handle.join().expect("reference computation");
                }
                match verify(w, opts, runner.window_s, &rep, &want) {
                    Ok(()) => Ok(rep),
                    Err(e) => Err((rep.get("ops") as u64, format!("results do not verify: {e}"))),
                }
            }
        };
        match verdict {
            Ok(rep) => {
                out.attempted += rep.get("ops") as u64;
                if trace_this { &mut spans } else { &mut plain }.push(rep);
            }
            Err((ops, e)) => {
                out.attempted += ops;
                out.failed += ops;
                out.errors.push(e);
                // A hang or a wrong answer will not get better on the
                // next repetition; the time goes to the next workload.
                break;
            }
        }
    }
    out.attempted = out.attempted.max(1);
    (plain, spans)
}

/// Run `w` for `opts.seconds`. Given the `ledger`, the pass is a
/// traced one: it alternates untraced and traced repetitions and also
/// reports the per-workload per-layer metrics, pricing the timed
/// section with the ledger's rows.
pub fn run(w: Workload, opts: &Options, ledger: Option<&BTreeMap<String, f64>>) -> Outcome {
    let traced = ledger.is_some();
    let fleets = if traced { FLEETS_TRACED } else { FLEETS_PLAIN };
    let runner = Runner {
        w,
        opts,
        window_s: match (w.engine, opts.quick) {
            (Engine::Sim, _) => 0.0,
            (Engine::Cluster, true) => 0.25,
            (Engine::Cluster, false) => opts.seconds / fleets as f64,
        },
    };
    let mut out = Outcome::default();
    let (plain, spans) = repetitions(&runner, traced, fleets, &mut out);

    let m = &mut out.metrics;
    // Reference seconds on the simulator (README, "Reference
    // seconds"); the reference's own time is not set-up.
    m.insert(
        "setup_s".into(),
        med(&plain, |r| {
            (r.setup_s - r.get("ref_pre_s")) / slowdown(w, r).setup
        }),
    );
    m.insert(
        "ops_per_s".into(),
        med(&plain, |r| r.get("ops") / ref_wall_s(w, r)),
    );
    m.insert("peak_rss_mb".into(), med(&plain, |r| r.get("peak_rss_mb")));
    // What the host's clock said, and how far from nominal the host
    // was: per-layer metrics, and a note beside the end-to-end ones.
    m.insert(
        "raw_ops_per_s".into(),
        med(&plain, |r| r.get("ops") / r.get("wall_s")),
    );
    m.insert(
        "host_slowdown".into(),
        match w.engine {
            Engine::Sim => med(&plain, |r| slowdown(w, r).timed),
            Engine::Cluster => 0.0,
        },
    );
    if let Some(ledger) = ledger {
        per_layer(&runner, &plain, &spans, ledger, &mut out);
    }
    out
}

/// The per-workload per-layer metrics of a traced pass.
fn per_layer(
    runner: &Runner<'_>,
    plain: &[Rep],
    spans: &[Rep],
    ledger: &BTreeMap<String, f64>,
    out: &mut Outcome,
) {
    let w = runner.w;
    // Simulator counts and virtual times: the same in every repetition,
    // or nothing measured here means what it says.
    let first = plain.first();
    let of_first = |name: &str| first.map_or(0.0, |r| r.get(name));
    for name in [
        "virt_completion_ms",
        "events",
        "msgs",
        "bytes",
        "rendezvous",
    ] {
        if plain
            .iter()
            .chain(spans)
            .any(|r| r.get(name) != of_first(name))
        {
            out.errors
                .push(format!("{name} differs between repetitions of one run"));
            out.failed = out.attempted;
        }
    }

    let m = &mut out.metrics;
    let wall_s = med(plain, |r| r.get("wall_s"));
    m.insert("wall_s".into(), wall_s);
    let when_sim = |v: f64| if w.engine == Engine::Sim { v } else { 0.0 };
    m.insert(
        "failed_op_share".into(),
        out.failed as f64 / out.attempted as f64,
    );
    for (metric, samples, p) in [
        ("read_fault_p50_us", "read_fault_ns", 50.0),
        ("read_fault_p90_us", "read_fault_ns", 90.0),
        ("write_fault_p50_us", "write_fault_ns", 50.0),
        ("write_fault_p90_us", "write_fault_ns", 90.0),
        ("op_p50_us", "op_ns", 50.0),
        ("op_p90_us", "op_ns", 90.0),
    ] {
        let ns = pooled(plain, samples);
        m.insert(metric.into(), percentile(&ns, p).unwrap_or(0.0) / 1e3);
        out.counts.insert(metric.into(), ns.len());
    }
    for (metric, samples, p) in [
        ("sync.acquire_p50_us", "acquire_ns", 50.0),
        ("sync.acquire_p90_us", "acquire_ns", 90.0),
        ("sync.barrier_p50_us", "barrier_ns", 50.0),
    ] {
        let ns = pooled(spans, samples);
        m.insert(metric.into(), percentile(&ns, p).unwrap_or(0.0) / 1e3);
        out.counts.insert(metric.into(), ns.len());
    }
    for call in ["acquire", "release", "read", "write", "barrier", "app"] {
        let name = format!("span.{call}_s");
        let total = spans.iter().map(|r| r.get(&name)).sum();
        m.insert(name, total);
    }
    let accesses: f64 = spans.iter().map(|r| r.get("accesses")).sum();
    let slow: f64 = spans.iter().map(|r| r.get("slow_accesses")).sum();
    m.insert(
        "core.slow_access_share".into(),
        if w.name == "cluster_kv" && accesses > 0.0 {
            slow / accesses
        } else {
            0.0
        },
    );
    let per_op = |reps: &[Rep]| med(reps, |r| ref_wall_s(w, r) / r.get("ops"));
    m.insert(
        "trace_overhead_share".into(),
        if plain.is_empty() || spans.is_empty() {
            0.0
        } else {
            per_op(spans) / per_op(plain) - 1.0
        },
    );

    let ops = of_first("ops").max(1.0);
    m.insert("virt_completion_ms".into(), of_first("virt_completion_ms"));
    m.insert("net.events_per_op".into(), of_first("events") / ops);
    m.insert("net.msgs_per_op".into(), of_first("msgs") / ops);
    m.insert("net.bytes_per_op".into(), of_first("bytes") / ops);
    m.insert("net.rendezvous_per_op".into(), of_first("rendezvous") / ops);
    m.insert(
        "sim_events_per_s".into(),
        when_sim(med(plain, |r| r.get("events") / r.get("sim_wall_s"))),
    );
    m.insert(
        "net.host_ns_per_event".into(),
        when_sim(med(plain, |r| r.get("sim_wall_s") * 1e9 / r.get("events"))),
    );
    for name in [
        "sync.acquire_virt_p50_us",
        "sync.acquire_virt_p99_us",
        "core.read_virt_p99_us",
        "core.write_virt_p99_us",
        "sync.barrier_virt_p50_us",
    ] {
        m.insert(name.into(), spans.last().map_or(0.0, |r| r.get(name)));
    }

    // Ledger attribution: what the counted work would cost at the
    // ledger's prices, as shares of the timed section. The residual is
    // protocol handlers, `mem` and application compute, which cannot
    // be told apart from outside.
    let price = |row: &str| ledger.get(row).copied().unwrap_or(0.0);
    let share = |ns: f64| when_sim(ns / (wall_s * 1e9));
    let kernel_row = if w.name == "sim_sor_wide" {
        "net.kernel_event_n512_ns"
    } else {
        "net.kernel_event_ns"
    };
    let kernel = share(of_first("events") * price(kernel_row));
    let rendezvous = share(of_first("rendezvous") * price("net.rendezvous_ns"));
    let hits = share(
        of_first("word_accesses") * price("core.lease_hit_ns")
            + of_first("bulk_bytes") * price("core.row_read_ns") / (sim::MATMUL_N * 8) as f64,
    );
    m.insert("share.net_kernel".into(), kernel);
    m.insert("share.net_rendezvous".into(), rendezvous);
    m.insert("share.core_hits".into(), hits);
    m.insert(
        "share.residual".into(),
        when_sim(1.0 - kernel - rendezvous - hits),
    );

    let ranks = match w.engine {
        Engine::Sim => 1,
        Engine::Cluster => cluster::RANKS as usize,
    };
    for rank in 0..ranks {
        let path = runner.fragment_path(rank);
        if let Ok(fragment) = std::fs::read_to_string(&path) {
            out.fragments.push(fragment);
            let _ = std::fs::remove_file(&path);
        }
    }
}
