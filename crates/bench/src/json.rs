//! Optional machine-readable experiment output.
//!
//! `run_all --json` enables the sink before running the suite; the
//! instrumented experiments then record one entry per configuration
//! run, and [`write_all`] writes a `BENCH_<exp>.json` file per
//! experiment with the completion time, traffic, and simulator
//! throughput of every configuration. The JSON is hand-rolled (the
//! workspace has no serde) but the shape is fixed:
//!
//! ```json
//! {
//!   "experiment": "e02_sor",
//!   "runs": [
//!     {"config": "IvyFixed nodes=4", "completion_ms": 12.5,
//!      "msgs": 1234, "bytes": 56789, "wall_ms": 18.3,
//!      "events": 91011, "events_per_sec": 4975000.0, "workers": 4}
//!   ]
//! }
//! ```
//!
//! `wall_ms`/`events`/`events_per_sec`/`workers` are the perf-trajectory
//! axis: virtual completion time is invariant across machines and
//! worker counts, but events/sec is the simulator's own throughput and
//! is what the sharded kernel is supposed to move.

use std::sync::Mutex;

#[derive(Debug, Clone)]
struct Record {
    exp: String,
    config: String,
    completion_ms: f64,
    msgs: u64,
    bytes: u64,
    /// Wall-clock duration of the run in milliseconds.
    wall_ms: f64,
    /// Kernel events processed (summed across shards).
    events: u64,
    /// Kernel worker threads the run used.
    workers: usize,
}

impl Record {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

static SINK: Mutex<Option<Vec<Record>>> = Mutex::new(None);

/// Start collecting records (idempotent; clears earlier records).
pub fn enable() {
    *SINK.lock().unwrap() = Some(Vec::new());
}

/// True when `enable` has been called and records are being kept.
pub fn enabled() -> bool {
    SINK.lock().unwrap().is_some()
}

/// Record one configuration run. A no-op unless the sink is enabled, so
/// experiments call this unconditionally. Experiments that only have
/// model-derived numbers (no simulator run) pass zero wall/events.
#[allow(clippy::too_many_arguments)]
pub fn record(
    exp: &str,
    config: &str,
    completion_ms: f64,
    msgs: u64,
    bytes: u64,
    wall_ms: f64,
    events: u64,
    workers: usize,
) {
    if let Some(v) = SINK.lock().unwrap().as_mut() {
        v.push(Record {
            exp: exp.into(),
            config: config.into(),
            completion_ms,
            msgs,
            bytes,
            wall_ms,
            events,
            workers,
        });
    }
}

/// Record a [`dsm_core::RunResult`] under an experiment/config label.
pub fn record_run<V>(exp: &str, config: &str, res: &dsm_core::RunResult<V>) {
    record(
        exp,
        config,
        res.end_time.as_millis_f64(),
        res.stats.total_msgs(),
        res.stats.total_bytes(),
        res.wall.as_secs_f64() * 1e3,
        res.events,
        res.workers,
    );
}

/// File-name slug for an experiment title: lowercase alphanumerics
/// with runs of anything else collapsed to `_` ("E2: SOR" → "e2_sor").
pub fn slug(title: &str) -> String {
    let mut out = String::new();
    let mut gap = false;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// Minimal JSON string escaping for the config labels we generate.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The binaries' `--json` epilogue: [`write_all`] into the current
/// directory, naming each file on stderr; exits 1 if one cannot be
/// written. A no-op unless the sink is enabled.
pub fn write_cwd_or_exit(tool: &str) {
    match write_all(std::path::Path::new(".")) {
        Ok(files) => files.iter().for_each(|f| eprintln!("wrote {f}")),
        Err(e) => {
            eprintln!("{tool}: failed to write JSON output: {e}");
            std::process::exit(1);
        }
    }
}

/// Write one `BENCH_<exp>.json` per recorded experiment into `dir`,
/// returning the file names written. Drains the sink.
pub fn write_all(dir: &std::path::Path) -> std::io::Result<Vec<String>> {
    let records = match SINK.lock().unwrap().take() {
        Some(r) => r,
        None => return Ok(Vec::new()),
    };
    // Group by experiment, preserving first-seen order.
    let mut exps: Vec<String> = Vec::new();
    for r in &records {
        if !exps.contains(&r.exp) {
            exps.push(r.exp.clone());
        }
    }
    let mut written = Vec::new();
    for exp in exps {
        let mut body = String::new();
        body.push_str(&format!(
            "{{\n  \"experiment\": \"{}\",\n  \"runs\": [\n",
            escape(&exp)
        ));
        let runs: Vec<&Record> = records.iter().filter(|r| r.exp == exp).collect();
        for (i, r) in runs.iter().enumerate() {
            body.push_str(&format!(
                "    {{\"config\": \"{}\", \"completion_ms\": {}, \"msgs\": {}, \
                 \"bytes\": {}, \"wall_ms\": {}, \"events\": {}, \
                 \"events_per_sec\": {}, \"workers\": {}}}{}\n",
                escape(&r.config),
                r.completion_ms,
                r.msgs,
                r.bytes,
                r.wall_ms,
                r.events,
                r.events_per_sec(),
                r.workers,
                if i + 1 < runs.len() { "," } else { "" }
            ));
        }
        body.push_str("  ]\n}\n");
        let name = format!("BENCH_{exp}.json");
        std::fs::write(dir.join(&name), body)?;
        written.push(name);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn disabled_sink_records_nothing() {
        // Never enabled in this test process order — record is a no-op
        // and write_all writes nothing.
        record("eXX", "cfg", 1.0, 2, 3, 4.0, 5, 1);
        if !enabled() {
            let out = write_all(std::path::Path::new(".")).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn events_per_sec_is_events_over_wall_seconds() {
        let r = Record {
            exp: "e".into(),
            config: "c".into(),
            completion_ms: 1.0,
            msgs: 0,
            bytes: 0,
            wall_ms: 500.0,
            events: 1000,
            workers: 4,
        };
        assert_eq!(r.events_per_sec(), 2000.0);
        let zero = Record { wall_ms: 0.0, ..r };
        assert_eq!(zero.events_per_sec(), 0.0);
    }
}
