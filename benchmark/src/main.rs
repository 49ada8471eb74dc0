//! `dsm-benchmark`: see `README.md` beside this package.
//!
//! ```text
//! dsm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dsm-benchmark [--quick] [--seed <n>] [--seconds <s>]      all six, both passes
//! dsm-benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]
//! ```

use dsm_benchmark::child::ChildArgs;
use dsm_benchmark::json::Json;
use dsm_benchmark::ledger::{self, Effort};
use dsm_benchmark::pass::{self, Options, Outcome};
use dsm_benchmark::spec::{self, Workload};
use dsm_benchmark::{cluster, report, sim, sys, trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<Workload>,
    trace: bool,
    opts: Options,
}

const USAGE: &str = "usage: dsm-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR]\n       \
                     dsm-benchmark compare A.json B.json [--spec BENCHMARK.json]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: false,
        opts: Options {
            seed: 21,
            seconds: 15.0,
            quick: false,
            out_dir: PathBuf::from("benchmark/out"),
            cpus: Vec::new(),
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                args.workload =
                    Some(spec::workload(name).ok_or(format!("no workload named {name}"))?);
            }
            "--seed" => args.opts.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.opts.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.opts.seconds > 0.0 && args.opts.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.opts.quick = true,
            "--out" => args.opts.out_dir = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(argv: &[String]) -> Result<ExitCode, String> {
    let (files, spec_path) = match argv {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--spec" => ([a, b], path.as_str()),
        _ => return Err(USAGE.into()),
    };
    let n = report::compare(
        &read_json(files[0])?,
        &read_json(files[1])?,
        &read_json(spec_path)?,
    )?;
    println!("{n} disagreement(s)");
    Ok(exit_code(n == 0))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print a pass's errors and its metrics of `table`; returns the rows.
fn report_pass(w: Workload, out: &Outcome, table: &[spec::Metric]) -> Vec<(spec::Metric, f64)> {
    for e in &out.errors {
        println!("error {} {e}", w.name);
    }
    let rows = report::select(table, &out.metrics);
    for (m, v) in &rows {
        report::print_metric(w.name, m, *v, out.counts.get(&m.name).copied());
    }
    rows
}

fn run_ledger(quick: bool) -> BTreeMap<String, f64> {
    let rows = ledger::run(if quick { &Effort::QUICK } else { &Effort::FULL });
    for (m, v) in report::select(&spec::ledger(), &rows) {
        report::print_metric("ledger", &m, v, None);
    }
    rows
}

fn write_trace(out_dir: &Path, fragments: &[String]) -> Result<(), String> {
    let path = out_dir.join("trace.json");
    trace::write_trace(&path, fragments).map_err(|e| format!("{}: {e}", path.display()))
}

/// The contract: one workload, one pass, the result as the last line.
fn one_workload(w: Workload, traced: bool, opts: &Options) -> Result<ExitCode, String> {
    let (out, rows) = if traced {
        let ledger = run_ledger(opts.quick);
        let out = pass::run(w, opts, Some(&ledger));
        write_trace(&opts.out_dir, &out.fragments)?;
        let mut rows = report_pass(w, &out, &spec::per_workload());
        rows.extend(report::select(&spec::ledger(), &ledger));
        (out, rows)
    } else {
        let out = pass::run(w, opts, None);
        let rows = report_pass(w, &out, &spec::end_to_end());
        // Not end-to-end metrics, but what a reader of them wants to
        // know: what the host's clock said, and how slow the host was.
        for name in ["raw_ops_per_s", "host_slowdown"] {
            println!("note {} {name} {}", w.name, out.metrics[name]);
        }
        (out, rows)
    };
    let correct = out.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", report::metrics_json(&rows)),
        ])
    );
    Ok(exit_code(correct))
}

/// All six workloads, untraced and traced pass each, and the ledger.
fn all_workloads(opts: &Options) -> Result<ExitCode, String> {
    let ledger = run_ledger(opts.quick);
    let mut fragments = Vec::new();
    let mut failed = 0;
    let mut workloads = BTreeMap::new();
    for w in spec::WORKLOADS {
        let plain = pass::run(w, opts, None);
        let e2e = report_pass(w, &plain, &spec::end_to_end());
        let traced = pass::run(w, opts, Some(&ledger));
        let layers = report_pass(w, &traced, &spec::per_workload());
        fragments.extend(traced.fragments);
        failed += plain.failed + traced.failed;
        workloads.insert(
            w.name.to_string(),
            Json::obj([
                (
                    "attempted",
                    Json::Num((plain.attempted + traced.attempted) as f64),
                ),
                ("failed", Json::Num((plain.failed + traced.failed) as f64)),
                ("end_to_end", report::values_json(&e2e)),
                ("per_layer", report::values_json(&layers)),
            ]),
        );
    }
    write_trace(&opts.out_dir, &fragments)?;
    let results = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("nproc", Json::Num(opts.cpus.len() as f64)),
        (
            "ledger",
            report::values_json(&report::select(&spec::ledger(), &ledger)),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results {}", path.display());
    Ok(exit_code(failed == 0))
}

fn drive(argv: &[String]) -> Result<ExitCode, String> {
    let mut args = parse(argv)?;
    let opts = &mut args.opts;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    opts.cpus = sys::allowed_cpus();
    // The ledger runs in this process; the children pin themselves.
    sys::pin_to(opts.cpus[0]);
    println!(
        "nproc {} seed {} seconds {}",
        opts.cpus.len(),
        opts.seed,
        opts.seconds
    );
    match args.workload {
        Some(w) => one_workload(w, args.trace, opts),
        None => all_workloads(opts),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = match argv.first().map(String::as_str) {
        Some("child-sim") => {
            sim::run_child(&ChildArgs::from_argv(&argv[1..]));
            return ExitCode::SUCCESS;
        }
        Some("child-node") => {
            cluster::run_child(&ChildArgs::from_argv(&argv[1..]));
            return ExitCode::SUCCESS;
        }
        Some("compare") => compare(&argv[1..]),
        _ => drive(&argv),
    };
    done.unwrap_or_else(|e| {
        eprintln!("dsm-benchmark: {e}");
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}
