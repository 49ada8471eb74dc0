//! `dsm-cluster` — real cluster mode: one OS process per node, pages
//! and protocol messages over localhost UDP.
//!
//! ```sh
//! dsm-cluster --nodes 4                      # sor under ivy-fixed, 4 processes
//! dsm-cluster --app kv --nodes 2 --proto lrc --size 300
//! ```
//!
//! The parent process spawns `--nodes` copies of itself in child mode
//! (`--child-rank R`), wires them together with a line-oriented stdio
//! handshake, runs the app's program (any app of `dsmrun --list`, from
//! the one table in `dsm_apps`) under the mprotect/SIGSEGV engine on
//! every node, and checks the ranks' results twice: by the app's own
//! verdict, and against the same program run in the single-process
//! simulator:
//!
//! ```text
//! child  -> parent   PORT <rank> <ip:port>     (after binding its UDP socket)
//! parent -> child    PEERS <addr0> <addr1> ... (full roster, rank order)
//! child  -> parent   RESULT <rank> <words>     (program done, still serving)
//! parent -> child    SHUTDOWN                  (whole cluster done; exit)
//! child  -> parent   STATS <rank> <kind>:<msgs>:<bytes>:<rexmit> ...
//! ```
//!
//! The parent prints the fleet's traffic beside the simulator's, one row
//! per message kind, as `dsmrun` prints the simulator's alone.
//!
//! Children keep serving peer page requests between RESULT and
//! SHUTDOWN, so a fast node cannot strand a slow one. Real sockets
//! are not deterministic: the contract is that *results* match the
//! simulator bit-for-bit, not that traffic does — each rank's result,
//! except where the app's split of the work between ranks is the
//! schedule's (`taskqueue`), whose aggregate is held instead.
//!
//! Only page-fault-driven protocols run in cluster mode — the ones
//! `dsmrun --list` marks "cluster mode: yes"; the others are refused
//! with the reason their row gives. See `docs/CLUSTER.md`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsm_apps::{App, Run, Words};
use dsm_bench::cli::CommonFlags;
use dsm_core::{NetStats, NodeId, ProtocolKind};

struct Args {
    common: CommonFlags,
    child_rank: Option<u32>,
    timeout_s: u64,
}

/// The flags, and the app they ask for configured on the cluster.
fn parse_args() -> Result<(Args, Run), String> {
    let mut args = Args {
        common: CommonFlags::default(),
        child_rank: None,
        timeout_s: 60,
    };
    // The cluster default is the fixed-manager IVY protocol; `lrc`
    // (the CommonFlags default) also runs.
    args.common.proto = ProtocolKind::IvyFixed;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--child-rank" => {
                args.child_rank = Some(val()?.parse().map_err(|e| format!("--child-rank: {e}"))?)
            }
            "--timeout" => {
                args.timeout_s = val()?.parse().map_err(|e| format!("--timeout: {e}"))?
            }
            other => {
                if !args.common.take(other, &mut it)? {
                    return Err(format!("unknown flag {other}"));
                }
            }
        }
    }
    args.common.validate()?;
    // Refuse here what `run_cluster_node` would refuse in every child.
    dsm_core::cluster::supports(args.common.proto)?;
    if args.common.page % dsm_vm::os_page_size() != 0 {
        return Err(format!(
            "--page {} must be a multiple of the OS page size ({})",
            args.common.page,
            dsm_vm::os_page_size()
        ));
    }
    let run = dsm_apps::plan(&args.common.app, args.common.size, args.common.config())?;
    Ok((args, run))
}

fn child(run: &Run, rank: u32) -> std::io::Result<()> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    println!("PORT {rank} {}", sock.local_addr()?);
    std::io::stdout().flush()?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    stdin.lock().read_line(&mut line)?;
    let mut words = line.split_whitespace();
    assert_eq!(words.next(), Some("PEERS"), "handshake out of order");
    let peers: Vec<SocketAddr> = words.map(|w| w.parse().expect("peer address")).collect();

    let (_, stats) = dsm_core::run_cluster_node(
        &run.cfg,
        NodeId(rank),
        sock,
        peers,
        |d| run.app.program(d),
        |result| {
            // Report, then keep serving peers until the coordinator
            // says the whole cluster is done (or closes our stdin).
            println!("RESULT {rank} {}", text(result));
            let _ = std::io::stdout().flush();
            let mut line = String::new();
            let _ = std::io::stdin().lock().read_line(&mut line);
        },
    );
    let kinds: Vec<String> = stats
        .iter_faults()
        .map(|(kind, k, _, _, rexmit)| format!("{kind}:{}:{}:{rexmit}", k.count, k.bytes))
        .collect();
    println!("STATS {rank} {}", kinds.join(" "));
    Ok(())
}

/// Messages, bytes and retransmissions of one kind.
type Traffic = [u64; 3];

/// The fleet's traffic from its ranks' STATS words, summed per kind.
fn fleet_traffic(lines: &[String]) -> Result<BTreeMap<String, Traffic>, String> {
    let mut fleet = BTreeMap::new();
    for word in lines.iter().flat_map(|l| l.split_whitespace()) {
        let mut parts = word.split(':');
        let kind = parts.next().unwrap_or_default().to_string();
        let counts: Vec<u64> = parts
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("malformed STATS word {word}: {e}"))?;
        let [msgs, bytes, rexmit] = counts[..] else {
            return Err(format!("malformed STATS word {word}"));
        };
        let sum: &mut Traffic = fleet.entry(kind).or_default();
        for (s, n) in sum.iter_mut().zip([msgs, bytes, rexmit]) {
            *s += n;
        }
    }
    Ok(fleet)
}

/// The simulator's and the fleet's traffic side by side, a row per kind
/// either sent, then the totals.
fn print_traffic(sim: &NetStats, fleet: &BTreeMap<String, Traffic>) {
    let mut rows: BTreeMap<&str, (Traffic, Traffic)> = BTreeMap::new();
    for (kind, k, _, _, rexmit) in sim.iter_faults() {
        rows.entry(kind).or_default().0 = [k.count, k.bytes, rexmit];
    }
    for (kind, t) in fleet {
        rows.entry(kind.as_str()).or_default().1 = *t;
    }
    let total = rows.values().fold([[0; 3]; 2], |mut sum, (s, c)| {
        for i in 0..3 {
            sum[0][i] += s[i];
            sum[1][i] += c[i];
        }
        sum
    });
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>12} {:>8}",
        "kind", "sim msgs", "sim bytes", "msgs", "bytes", "rexmit"
    );
    let totals = ("TOTAL", (total[0], total[1]));
    for (kind, (s, c)) in rows.into_iter().chain([totals]) {
        println!(
            "{kind:<18} {:>10} {:>12} {:>10} {:>12} {:>8}",
            s[0], s[1], c[0], c[1], c[2]
        );
    }
}

/// A rank's result as a line's words.
fn text(words: &Words) -> String {
    words
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// A result as the log shows it: its words, or how many (`sort`'s rank
/// 0 returns every key).
fn shown(words: &Words) -> String {
    match words.len() {
        1..=4 => text(words),
        n => format!("[{n} words]"),
    }
}

fn parent(args: &Args, run: &Run) -> Result<(), String> {
    let n = args.common.nodes;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(args.timeout_s);

    // Reference run: the same program in the single-process simulator.
    let sim = dsm_core::run_dsm(&run.cfg, |d| run.app.program(d));
    println!(
        "simulator: {} on {n} nodes (virtual time {})",
        args.common.app, sim.end_time
    );
    if !run.app.verdict(&sim.results) {
        return Err("the simulator's results fail the app's own verdict".into());
    }

    let mut fleet: Vec<Child> = Vec::new();
    // A rank's lines, then `None` when its output closes: it exited.
    let (tx, rx) = mpsc::channel::<(u32, Option<String>)>();
    for rank in 0..n {
        // A child parses the parent's own flags, so it plans the same run.
        let mut child = Command::new(&exe)
            .args(std::env::args().skip(1))
            .arg("--child-rank")
            .arg(rank.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn rank {rank}: {e}"))?;
        let out = child.stdout.take().expect("piped stdout");
        let tx = tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if tx.send((rank, Some(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((rank, None));
        });
        fleet.push(child);
    }
    drop(tx);

    let run = |fleet: &mut Vec<Child>| -> Result<(), String> {
        let recv = |want: &str,
                    rx: &mpsc::Receiver<(u32, Option<String>)>|
         -> Result<Vec<String>, String> {
            let mut got = vec![None; n as usize];
            while got.iter().any(Option::is_none) {
                let timed_out = || format!("timed out waiting for {want}");
                let left = deadline
                    .checked_duration_since(Instant::now())
                    .ok_or_else(timed_out)?;
                let (rank, line) = rx.recv_timeout(left).map_err(|_| timed_out())?;
                let Some(line) = line else {
                    // A rank may exit once its last line is in.
                    if got[rank as usize].is_some() {
                        continue;
                    }
                    return Err(format!("rank {rank} exited before its {want}"));
                };
                let mut words = line.split_whitespace();
                if words.next() != Some(want) {
                    continue; // stray child chatter
                }
                let r: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .filter(|&r| r == rank && r < n)
                    .ok_or_else(|| format!("malformed {want} line from rank {rank}: {line}"))?;
                got[r as usize] = Some(words.collect::<Vec<_>>().join(" "));
            }
            Ok(got.into_iter().map(Option::unwrap).collect())
        };

        let addrs = recv("PORT", &rx)?;
        let roster = format!("PEERS {}\n", addrs.join(" "));
        for (rank, c) in fleet.iter_mut().enumerate() {
            c.stdin
                .as_mut()
                .expect("piped stdin")
                .write_all(roster.as_bytes())
                .map_err(|e| format!("roster to rank {rank}: {e}"))?;
        }
        println!("cluster: {n} processes up, roster {}", addrs.join(" "));

        let results = recv("RESULT", &rx)?;
        let results: Vec<Words> = results
            .iter()
            .map(|line| line.split_whitespace().map(str::parse).collect())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("malformed RESULT words: {e}"))?;
        let verdict = run.app.verdict(&results);
        println!("app verdict: {}", if verdict { "OK" } else { "MISMATCH" });
        let (got, want) = (
            run.app.comparable(&results),
            run.app.comparable(&sim.results),
        );
        let per_rank = got.len() == results.len();
        let mut ok = verdict;
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            let same = got == want;
            let who = match per_rank {
                true => format!("rank {i}"),
                false => "all ranks".to_string(),
            };
            println!(
                "{who}: cluster {} simulator {} {}",
                shown(got),
                shown(want),
                if same { "OK" } else { "MISMATCH" }
            );
            ok &= same;
        }
        // All results are in, so every barrier has released: tell the
        // children to stop serving and exit.
        for c in fleet.iter_mut() {
            let _ = c
                .stdin
                .as_mut()
                .expect("piped stdin")
                .write_all(b"SHUTDOWN\n");
        }
        let stats = recv("STATS", &rx)?;
        print_traffic(&sim.stats, &fleet_traffic(&stats)?);
        for (rank, c) in fleet.iter_mut().enumerate() {
            loop {
                match c.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("rank {rank} exited with {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    Ok(None) => return Err(format!("rank {rank} ignored SHUTDOWN")),
                    Err(e) => return Err(format!("wait rank {rank}: {e}")),
                }
            }
        }
        if ok {
            println!("cluster verification: OK ({n} processes over localhost UDP)");
            Ok(())
        } else {
            Err("cluster results diverged from the simulator".into())
        }
    };

    let out = run(&mut fleet);
    if out.is_err() {
        for c in &mut fleet {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
    out
}

fn main() {
    let (args, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dsm-cluster: {e}");
            eprintln!("usage: dsm-cluster [--timeout SECS] {}", CommonFlags::USAGE);
            std::process::exit(2);
        }
    };
    match args.child_rank {
        Some(rank) => {
            if let Err(e) = child(&run, rank) {
                eprintln!("dsm-cluster[{rank}]: {e}");
                std::process::exit(1);
            }
        }
        None => {
            if let Err(e) = parent(&args, &run) {
                eprintln!("dsm-cluster: {e}");
                std::process::exit(1);
            }
        }
    }
}
