//! Runs the benchmark binary with `--quick` and holds its output to
//! `BENCHMARK.json`: every declared metric printed once with its unit,
//! nothing failed, the trace and results files written and readable.

use dsm_benchmark::json::Json;
use dsm_benchmark::spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dsm-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one of the metric lists in `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|row| {
            let field = |k: &str| row.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn tables_match_benchmark_json() {
    let json = benchmark_json();
    let units = |table: Vec<spec::Metric>| -> BTreeMap<String, String> {
        table
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), units(spec::end_to_end()));
    assert_eq!(declared(&json, "per_layer"), units(spec::per_layer()));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn quick_run_prints_every_declared_metric_once() {
    let dir = out_dir("quick");
    let dir_arg = dir.to_str().expect("UTF-8 path");
    let stdout = run(&["--quick", "--out", dir_arg]);

    // (scope, name) → (value, unit), refusing repeats.
    let mut printed: BTreeMap<(String, String), (f64, String)> = BTreeMap::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_ne!(words[0], "error", "{line}");
        if words[0] != "metric" {
            continue;
        }
        let (scope, name, value, unit) = (words[1], words[2], words[3], words[4]);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{line}"));
        assert!(value.is_finite(), "{line}");
        let old = printed.insert((scope.into(), name.into()), (value, unit.into()));
        assert!(old.is_none(), "{scope} {name} printed twice");
    }

    let json = benchmark_json();
    let ledger: Vec<String> = spec::ledger().into_iter().map(|m| m.name).collect();
    let mut expected = 0;
    for list in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&json, list) {
            let scopes: Vec<&str> = if ledger.contains(&name) {
                vec!["ledger"]
            } else {
                spec::WORKLOADS.iter().map(|w| w.name).collect()
            };
            for scope in scopes {
                let (_, got) = printed
                    .get(&(scope.to_string(), name.clone()))
                    .unwrap_or_else(|| panic!("{scope} {name} was not printed"));
                assert_eq!(got, &unit, "unit of {scope} {name}");
                expected += 1;
            }
        }
    }
    assert_eq!(
        printed.len(),
        expected,
        "a metric outside BENCHMARK.json was printed"
    );
    for w in spec::WORKLOADS {
        let key = (w.name.to_string(), "failed_op_share".to_string());
        assert_eq!(printed[&key].0, 0.0, "{} failed operations", w.name);
        let key = (w.name.to_string(), "ops_per_s".to_string());
        assert!(printed[&key].0 > 0.0, "{} did no work", w.name);
    }

    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let trace = Json::parse(&trace).expect("trace.json parses");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(events.len() > 100, "only {} trace events", events.len());

    // A results file agrees with itself.
    let results = dir.join("results.json");
    let results = results.to_str().expect("UTF-8 path");
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let verdict = run(&[
        "compare",
        results,
        results,
        "--spec",
        spec_path.to_str().expect("UTF-8 path"),
    ]);
    assert!(verdict.ends_with("0 disagreement(s)\n"), "{verdict}");
}

#[test]
fn contract_run_ends_with_the_result_object() {
    let json = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let dir = out_dir(&format!("contract{trace}"));
        let stdout = run(&[
            "--workload",
            "sim_kv_lrc",
            "--seed",
            "22",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
            "--out",
            dir.to_str().expect("UTF-8 path"),
        ]);
        let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = last
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            last.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = last.get("metrics").and_then(Json::as_obj).expect("metrics");
        let want = declared(&json, list);
        assert_eq!(
            metrics.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, unit) in want {
            assert_eq!(
                metrics[&name].get("unit").and_then(Json::as_str),
                Some(&*unit)
            );
            assert!(metrics[&name].get("value").and_then(Json::as_f64).is_some());
        }
    }
}
