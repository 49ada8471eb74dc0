//! What a child process (one simulator run, or one cluster node) is
//! told on its command line, and the line protocol it answers with on
//! standard output:
//!
//! ```text
//! PORT <addr>          cluster node: UDP socket bound (then reads PEERS)
//! READY                set-up done, the timed section starts now
//! M <name> <value>     one measured number
//! S <name> <v> <v> …   latency samples, nanoseconds
//! V <node> <hex>       one node's result, for the driver to verify
//! DONE                 everything reported (a cluster node then
//!                      serves its peer until told SHUTDOWN)
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc;

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
    /// Where to write this process's trace fragment (traced runs).
    pub trace_out: Option<PathBuf>,
    /// The CPU to pin to; a cluster node puts its application thread
    /// on `app_cpu` and the runtime's threads on `cpu`.
    pub cpu: usize,
    pub app_cpu: usize,
    /// Cluster node only: rank and the length of the timed window.
    pub rank: u32,
    pub window_s: f64,
}

impl ChildArgs {
    /// The arguments that make a re-exec of this binary a child.
    pub fn to_argv(&self, mode: &str) -> Vec<String> {
        let mut argv = vec![
            mode.to_string(),
            self.workload.clone(),
            self.seed.to_string(),
            u8::from(self.quick).to_string(),
            u8::from(self.traced).to_string(),
            self.cpu.to_string(),
            self.app_cpu.to_string(),
            self.rank.to_string(),
            self.window_s.to_string(),
        ];
        if let Some(p) = &self.trace_out {
            argv.push(p.display().to_string());
        }
        argv
    }

    /// Inverse of [`ChildArgs::to_argv`], minus the mode word. The
    /// driver is the only caller of a child, so a malformed line is a
    /// bug and panics.
    pub fn from_argv(argv: &[String]) -> ChildArgs {
        let num = |i: usize| -> f64 { argv[i].parse().expect("numeric child argument") };
        ChildArgs {
            workload: argv[0].clone(),
            seed: argv[1].parse().expect("seed"),
            quick: num(2) != 0.0,
            traced: num(3) != 0.0,
            cpu: num(4) as usize,
            app_cpu: num(5) as usize,
            rank: num(6) as u32,
            window_s: num(7),
            trace_out: argv.get(8).map(PathBuf::from),
        }
    }
}

pub fn line(text: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    // A closed pipe means the driver is gone; the stdin watcher ends
    // this process, so the error needs no second handling here.
    let _ = writeln!(out, "{text}");
    let _ = out.flush();
}

pub fn metric(name: &str, value: f64) {
    line(format_args!("M {name} {value}"));
}

pub fn samples(name: &str, ns: &[u64]) {
    let mut text = format!("S {name}");
    for v in ns {
        text.push(' ');
        text.push_str(&v.to_string());
    }
    line(format_args!("{text}"));
}

pub fn result(node: usize, bits: u64) {
    line(format_args!("V {node} {bits:016x}"));
}

/// Forward standard input line by line, and end the process when it
/// closes: the driver holds the other end, so a closed pipe means the
/// driver died or gave up on this child. Same contract as
/// `dsm-cluster`'s children.
pub fn watch_stdin() -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::stdin().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                return;
            }
        }
        std::process::exit(3);
    });
    rx
}
