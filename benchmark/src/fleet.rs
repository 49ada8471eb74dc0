//! Driver side of one repetition: start the child processes of a
//! workload (one simulator run, or the two cluster nodes), wire the
//! cluster handshake, collect what they report, and never wait on them
//! longer than the watchdog allows.

use crate::child::ChildArgs;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the processes of one repetition reported, merged.
#[derive(Debug, Default)]
pub struct Rep {
    /// First spawn to the last process's READY.
    pub setup_s: f64,
    /// `M` lines, summed over the processes — except `wall_s`, where
    /// the slowest process counts.
    pub metrics: BTreeMap<String, f64>,
    /// `S` lines, pooled over the processes.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// `V` lines: node → result bits.
    pub results: BTreeMap<usize, u64>,
}

impl Rep {
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

struct Proc {
    child: Child,
    /// Held apart from `child` so that `wait` does not close it: a
    /// child treats closed stdin as "the driver is gone".
    stdin: ChildStdin,
}

#[derive(Default)]
struct Fleet {
    procs: Vec<Proc>,
    /// One thread per process, forwarding its output lines.
    readers: Vec<JoinHandle<()>>,
}

impl Fleet {
    fn tell_all(&mut self, line: &str) -> Result<(), String> {
        for (rank, p) in self.procs.iter_mut().enumerate() {
            p.stdin
                .write_all(line.as_bytes())
                .map_err(|e| format!("write to process {rank}: {e}"))?;
        }
        Ok(())
    }
}

/// Whatever happens, no child outlives the repetition; its death is
/// the end of file that lets its reader thread finish.
impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// Run one repetition: `mode` is the child mode word, `procs` one
/// argument set per process. `Err` names what went wrong; the fleet is
/// killed either way before this returns.
pub fn run(mode: &str, procs: &[ChildArgs], watchdog: Duration) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let deadline = start + watchdog;
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    let mut fleet = Fleet::default();
    for (rank, args) in procs.iter().enumerate() {
        let mut child = Command::new(&exe)
            .args(args.to_argv(mode))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn process {rank}: {e}"))?;
        let out = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take().expect("piped stdin");
        let tx = tx.clone();
        fleet.readers.push(std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if tx.send((rank, line)).is_err() {
                    break;
                }
            }
        }));
        fleet.procs.push(Proc { child, stdin });
    }
    drop(tx);

    let n = procs.len();
    let mut rep = Rep::default();
    let mut ports = vec![None; n];
    let (mut ready, mut done) = (0, 0);
    while done < n {
        let left = deadline
            .checked_duration_since(Instant::now())
            .ok_or("watchdog: the run outlived its time limit")?;
        let (rank, line) = rx.recv_timeout(left).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => "watchdog: the run outlived its time limit",
            mpsc::RecvTimeoutError::Disconnected => "a process died before reporting",
        })?;
        let mut words = line.split_whitespace();
        let bad = || format!("process {rank}: malformed line {line:?}");
        match words.next() {
            Some("PORT") => {
                ports[rank] = Some(words.next().ok_or_else(bad)?.to_string());
                if ports.iter().all(Option::is_some) {
                    let roster: Vec<String> = ports.iter().flatten().cloned().collect();
                    fleet.tell_all(&format!("PEERS {}\n", roster.join(" ")))?;
                }
            }
            Some("READY") => {
                ready += 1;
                if ready == n {
                    rep.setup_s = start.elapsed().as_secs_f64();
                }
            }
            Some("M") => {
                let name = words.next().ok_or_else(bad)?;
                let v: f64 = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
                let slot = rep.metrics.entry(name.to_string()).or_insert(0.0);
                *slot = if name == "wall_s" {
                    slot.max(v)
                } else {
                    *slot + v
                };
            }
            Some("S") => {
                let name = words.next().ok_or_else(bad)?;
                let pool = rep.samples.entry(name.to_string()).or_default();
                for w in words {
                    pool.push(w.parse().map_err(|_| bad())?);
                }
            }
            Some("V") => {
                let node = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
                let bits = words
                    .next()
                    .and_then(|w| u64::from_str_radix(w, 16).ok())
                    .ok_or_else(bad)?;
                rep.results.insert(node, bits);
            }
            Some("DONE") => done += 1,
            _ => return Err(bad()),
        }
    }
    if ready != n {
        return Err("a process reported without starting its timed section".into());
    }

    // Every process has reported, so every barrier has released: the
    // nodes may stop serving each other.
    fleet.tell_all("SHUTDOWN\n")?;
    for (rank, p) in fleet.procs.iter_mut().enumerate() {
        loop {
            match p.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("process {rank} exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err(format!("watchdog: process {rank} ignored SHUTDOWN")),
                Err(e) => return Err(format!("wait for process {rank}: {e}")),
            }
        }
    }
    Ok(rep)
}
