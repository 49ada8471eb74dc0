//! Spans recorded from the benchmark's own files, around its calls into
//! the layers. Each application thread owns a [`Recorder`]; spans stay
//! in memory until the run ends and are then written as Chrome
//! trace-event fragments, which the driver joins into one file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a span surrounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The whole `run_dsm` / `run_cluster_node` program of one node.
    Root,
    /// One operation; the calls it makes are its children and share
    /// its `op` number.
    Op,
    Acquire,
    Release,
    Read,
    Write,
    Barrier,
}

impl Call {
    pub const LEAVES: [Call; 5] = [
        Call::Acquire,
        Call::Release,
        Call::Read,
        Call::Write,
        Call::Barrier,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Root => "run",
            Call::Op => "op",
            Call::Acquire => "acquire",
            Call::Release => "release",
            Call::Read => "read",
            Call::Write => "write",
            Call::Barrier => "barrier",
        }
    }

    /// The layer the call enters.
    fn layer(self) -> &'static str {
        match self {
            Call::Root | Call::Op => "app",
            Call::Acquire | Call::Release | Call::Barrier => "sync",
            Call::Read | Call::Write => "core",
        }
    }
}

/// `op` of a span that belongs to no operation (root, barriers).
pub const NO_OP: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub op: u32,
    /// Host time since the recorder's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Virtual time (simulator only; 0 on the cluster).
    pub vstart_ns: u64,
    pub vdur_ns: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Mark {
    host_ns: u64,
    virt_ns: u64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `on`; off, every method
    /// is a branch and nothing else.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn begin(&self, virt: impl FnOnce() -> u64) -> Mark {
        if !self.on {
            return Mark::default();
        }
        Mark {
            host_ns: self.epoch.elapsed().as_nanos() as u64,
            virt_ns: virt(),
        }
    }

    pub fn end(&mut self, call: Call, op: u32, mark: Mark, virt: impl FnOnce() -> u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            call,
            op,
            start_ns: mark.host_ns,
            dur_ns: now - mark.host_ns,
            vstart_ns: mark.virt_ns,
            vdur_ns: virt() - mark.virt_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn call<T>(
        &mut self,
        call: Call,
        op: u32,
        virt: impl Fn() -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let mark = self.begin(&virt);
        let out = f();
        self.end(call, op, mark, virt);
        out
    }
}

/// Total host seconds spent in spans of `call`.
pub fn total_s(spans: &[Span], call: Call) -> f64 {
    spans
        .iter()
        .filter(|s| s.call == call)
        .map(|s| s.dur_ns as f64)
        .sum::<f64>()
        / 1e9
}

/// Durations of the spans of `call`, host or virtual, in nanoseconds.
pub fn durations_ns(spans: &[Span], call: Call, virt: bool) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.call == call)
        .map(|s| if virt { s.vdur_ns } else { s.dur_ns })
        .collect()
}

/// Most events one process writes: a run records a few hundred
/// thousand spans, and the file is for looking at, not for metrics
/// (those are computed from the spans in memory).
const MAX_EVENTS: usize = 40_000;

/// Write one process's spans as a comma-separated run of Chrome trace
/// events (no enclosing brackets). `threads` pairs a thread id with the
/// spans it recorded.
pub fn write_fragment(
    path: &Path,
    pid: u32,
    process: &str,
    threads: &[(u32, &[Span])],
) -> std::io::Result<()> {
    let recorded: usize = threads.iter().map(|(_, s)| s.len()).sum();
    let per_thread = MAX_EVENTS / threads.len().max(1);
    let mut out = String::new();
    write!(
        out,
        r#"{{"name": "process_name", "ph": "M", "pid": {pid}, "args": {{"name": "{process}", "spans_recorded": {recorded}, "spans_written_per_thread": {per_thread}}}}}"#
    )
    .expect("write to string");
    for (tid, spans) in threads {
        for s in spans.iter().take(per_thread) {
            write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {tid}, \"args\": {{",
                s.call.name(),
                s.call.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            )
            .expect("write to string");
            // The span that caused this one: an operation's calls name
            // their operation, everything else hangs off the root.
            match (s.call, s.op) {
                (Call::Root, _) => {}
                (Call::Op, op) => write!(out, "\"op\": {op}, \"parent\": \"run\", ").unwrap(),
                (_, NO_OP) => out.push_str("\"parent\": \"run\", "),
                (_, op) => write!(out, "\"op\": {op}, \"parent\": \"op\", ").unwrap(),
            }
            write!(
                out,
                "\"virt_start_us\": {:.3}, \"virt_dur_us\": {:.3}}}}}",
                s.vstart_ns as f64 / 1e3,
                s.vdur_ns as f64 / 1e3
            )
            .expect("write to string");
        }
    }
    std::fs::write(path, out)
}

/// Join fragments into one Chrome trace file.
pub fn write_trace(path: &Path, fragments: &[String]) -> std::io::Result<()> {
    let body = fragments.join(",\n");
    std::fs::write(
        path,
        format!("{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n{body}\n]}}\n"),
    )
}
