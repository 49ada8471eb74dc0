//! What the command prints and writes, and `compare`, which reads two
//! written results back and checks that they agree.

use crate::json::Json;
use crate::spec::{self, Kind, Metric};
use std::collections::BTreeMap;

/// One line per metric: `metric <scope> <name> <value> <unit>`, where
/// the scope is a workload or `ledger`; `count`, where given, is the
/// number of samples behind a percentile.
pub fn print_metric(scope: &str, metric: &Metric, value: f64, count: Option<usize>) {
    let n = count.map_or(String::new(), |n| format!(" n={n}"));
    println!("metric {scope} {} {value} {}{n}", metric.name, metric.unit);
}

/// The metrics of `table`, by name, from `values`. A metric the pass
/// did not produce is a bug in the benchmark.
pub fn select(table: &[Metric], values: &BTreeMap<String, f64>) -> Vec<(Metric, f64)> {
    table
        .iter()
        .map(|m| {
            let v = values
                .get(&m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            (m.clone(), *v)
        })
        .collect()
}

/// The contract's `metrics` object: name → `{value, unit}`.
pub fn metrics_json(rows: &[(Metric, f64)]) -> Json {
    Json::obj(rows.iter().map(|(m, v)| {
        (
            m.name.as_str(),
            Json::obj([
                ("value", Json::Num(*v)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// Plain name → value object, for the results file.
pub fn values_json(rows: &[(Metric, f64)]) -> Json {
    Json::obj(rows.iter().map(|(m, v)| (m.name.as_str(), Json::Num(*v))))
}

/// Direction and bound of an end-to-end metric, from `BENCHMARK.json`.
struct Bound {
    higher_is_better: bool,
    bound: f64,
}

fn bounds(benchmark_json: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let rows = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let field = |k: &str| row.get(k).ok_or(format!("end_to_end row without {k:?}"));
            let name = field("name")?.as_str().ok_or("name is not a string")?;
            let better = field("better")?.as_str().ok_or("better is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            Ok((
                name.to_string(),
                Bound {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// Compare results file `b` against `a`, workload by workload. Virtual
/// times and simulator counts must be equal; an end-to-end metric may
/// be worse in `b` by at most its bound; other host-time metrics are
/// printed with their change and not judged (they have no bound).
/// Returns the number of disagreements.
pub fn compare<'a>(a: &'a Json, b: &'a Json, benchmark_json: &Json) -> Result<usize, String> {
    let bounds = bounds(benchmark_json)?;
    let workloads = |j: &'a Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .ok_or("results file has no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut disagreements = 0;
    let number = |j: &Json, section: &str, name: &str| -> Result<f64, String> {
        j.get(section)
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .ok_or(format!("results file lacks {section}.{name}"))
    };
    for w in spec::WORKLOADS {
        let (Some(ra), Some(rb)) = (wa.get(w.name), wb.get(w.name)) else {
            println!("{:<16} missing from one of the files", w.name);
            disagreements += 1;
            continue;
        };
        for m in spec::end_to_end() {
            let (va, vb) = (
                number(ra, "end_to_end", &m.name)?,
                number(rb, "end_to_end", &m.name)?,
            );
            let bound = bounds
                .get(&m.name)
                .ok_or(format!("BENCHMARK.json has no bound for {}", m.name))?;
            let worse = if bound.higher_is_better {
                va - vb
            } else {
                vb - va
            } / va;
            let ok = worse <= bound.bound;
            disagreements += usize::from(!ok);
            println!(
                "{:<16} {:<28} {va:>14.4} {vb:>14.4} {:>+8.2}% worse (bound {:.0}%) {}",
                w.name,
                m.name,
                worse * 100.0,
                bound.bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" },
            );
        }
        for m in spec::per_workload() {
            let (va, vb) = (
                number(ra, "per_layer", &m.name)?,
                number(rb, "per_layer", &m.name)?,
            );
            match m.kind {
                Kind::Exact => {
                    let ok = va == vb;
                    disagreements += usize::from(!ok);
                    if !ok {
                        println!(
                            "{:<16} {:<28} {va:>14} {vb:>14} MUST BE EQUAL",
                            w.name, m.name
                        );
                    }
                }
                Kind::Host if va != 0.0 => print_change(w.name, &m.name, va, vb),
                Kind::Host => {}
            }
        }
    }
    for m in spec::ledger() {
        let (va, vb) = (number(a, "ledger", &m.name)?, number(b, "ledger", &m.name)?);
        print_change("ledger", &m.name, va, vb);
    }
    Ok(disagreements)
}

/// An unjudged host-time metric: both values and the relative change.
fn print_change(scope: &str, name: &str, va: f64, vb: f64) {
    println!(
        "{scope:<16} {name:<28} {va:>14.4} {vb:>14.4} {:>+8.2}%",
        (vb - va) / va * 100.0
    );
}
