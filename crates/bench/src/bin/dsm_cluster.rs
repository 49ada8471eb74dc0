//! `dsm-cluster` — real cluster mode: one OS process per node, pages
//! and protocol messages over localhost UDP.
//!
//! ```sh
//! dsm-cluster --nodes 4                      # ivy-fixed, 4 processes
//! dsm-cluster --nodes 2 --proto lrc --net myrinet_1995
//! ```
//!
//! The parent process spawns `--nodes` copies of itself in child mode
//! (`--child-rank R`), wires them together with a line-oriented stdio
//! handshake, runs the demo workload under the mprotect/SIGSEGV
//! engine on every node, and verifies each node's result against the
//! same program run in the single-process simulator:
//!
//! ```text
//! child  -> parent   PORT <rank> <ip:port>     (after binding its UDP socket)
//! parent -> child    PEERS <addr0> <addr1> ... (full roster, rank order)
//! child  -> parent   RESULT <rank> <value>     (program done, still serving)
//! parent -> child    SHUTDOWN                  (whole cluster done; exit)
//! ```
//!
//! Children keep serving peer page requests between RESULT and
//! SHUTDOWN, so a fast node cannot strand a slow one. Real sockets
//! are not deterministic: the contract is that *results* match the
//! simulator bit-for-bit, not that traffic does.
//!
//! Only page-fault-driven protocols run in cluster mode — the ones
//! `dsmrun --list` marks "cluster mode: yes"; the others are refused
//! with the reason their row gives. See `docs/CLUSTER.md`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsm_bench::cli::CommonFlags;
use dsm_core::{DsmConfig, GlobalAddr, NodeId, ProtocolKind};

struct Args {
    common: CommonFlags,
    child_rank: Option<u32>,
    timeout_s: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        common: CommonFlags::default(),
        child_rank: None,
        timeout_s: 60,
    };
    // The cluster default is the fixed-manager IVY protocol; `lrc`
    // (the CommonFlags default) also works but makes a less direct
    // demo of page ping-pong.
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
    Ok(args)
}

fn config(c: &CommonFlags) -> DsmConfig {
    // One slot page per node plus the counter page (see the workload).
    let mut cfg = DsmConfig::new(c.nodes, c.proto)
        .heap_bytes((c.nodes as usize + 1) * c.page)
        .page_size(c.page)
        .batch_depth(c.batch_depth);
    if let Some(model) = c.model() {
        cfg.model = model;
    }
    cfg
}

/// The demo workload, written once against each memory API (the
/// simulator's `Dsm` and the cluster's `ClusterDsm` expose the same
/// vocabulary but are distinct types). Page `i` holds node `i`'s u64
/// slot; page `n` holds a lock-guarded counter. Every node's result
/// is the same function of `nnodes`, so a single wrong page transfer
/// shows up as a RESULT mismatch.
///
/// The layout is page-strided: each rank's slot and the counter sit on
/// pages of their own, so every slot crosses the wire as a page
/// transfer, which is what this demo checks. Writers of one page are
/// held by `crates/core/tests/cluster_sc.rs` and `cluster_lrc.rs`.
macro_rules! demo_workload {
    ($d:expr, $page:expr) => {{
        let d = $d;
        let (rank, n) = (d.id().0 as u64, d.nodes() as u64);
        let ctr = GlobalAddr(n as usize * $page);
        d.write_u64(GlobalAddr(rank as usize * $page), (rank + 1) * 10);
        d.barrier(0);
        let mut sum = 0u64;
        for i in 0..n as usize {
            sum += d.read_u64(GlobalAddr(i * $page));
        }
        for _ in 0..3 {
            d.with_lock(1, |d| {
                let c = d.read_u64(ctr);
                d.write_u64(ctr, c + rank + 1);
            });
        }
        d.barrier(1);
        sum * 1000 + d.read_u64(ctr)
    }};
}

/// The value every node should return: slot sum of `(i+1)*10` scaled,
/// plus three lock-guarded rounds of `+ (i+1)` from each node.
fn expected(n: u64) -> u64 {
    let tri = n * (n + 1) / 2;
    10 * tri * 1000 + 3 * tri
}

fn child(args: &Args, rank: u32) -> std::io::Result<()> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    println!("PORT {rank} {}", sock.local_addr()?);
    std::io::stdout().flush()?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    stdin.lock().read_line(&mut line)?;
    let mut words = line.split_whitespace();
    assert_eq!(words.next(), Some("PEERS"), "handshake out of order");
    let peers: Vec<SocketAddr> = words.map(|w| w.parse().expect("peer address")).collect();

    let cfg = config(&args.common);
    let page = args.common.page;
    let result = dsm_core::run_cluster_node(
        &cfg,
        NodeId(rank),
        sock,
        peers,
        |dsm| demo_workload!(dsm, page),
        |result| {
            // Report, then keep serving peers until the coordinator
            // says the whole cluster is done (or closes our stdin).
            println!("RESULT {rank} {result}");
            let _ = std::io::stdout().flush();
            let mut line = String::new();
            let _ = std::io::stdin().lock().read_line(&mut line);
        },
    );
    let _ = result;
    Ok(())
}

struct Fleet(Vec<Child>);

impl Fleet {
    fn kill_all(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn parent(args: &Args) -> Result<(), String> {
    let n = args.common.nodes;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(args.timeout_s);

    // Reference run: the same workload in the single-process simulator.
    let page = args.common.page;
    let sim = dsm_core::run_dsm(&config(&args.common), move |d: &dsm_core::Dsm<'_>| {
        demo_workload!(d, page)
    });
    println!(
        "simulator: results {:?} (virtual time {})",
        sim.results, sim.end_time
    );
    assert!(
        sim.results.iter().all(|&v| v == expected(n as u64)),
        "simulator reference disagrees with the closed form"
    );

    let mut fleet = Fleet(Vec::new());
    let (tx, rx) = mpsc::channel::<(u32, String)>();
    for rank in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child-rank")
            .arg(rank.to_string())
            .arg("--nodes")
            .arg(n.to_string())
            .arg("--proto")
            .arg(args.common.proto.name())
            .arg("--page")
            .arg(args.common.page.to_string())
            .arg("--batch-depth")
            .arg(args.common.batch_depth.to_string());
        if let Some(era) = &args.common.net {
            cmd.arg("--net").arg(era);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn rank {rank}: {e}"))?;
        let out = child.stdout.take().expect("piped stdout");
        let tx = tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if tx.send((rank, line)).is_err() {
                    break;
                }
            }
        });
        fleet.0.push(child);
    }
    drop(tx);

    let run = |fleet: &mut Fleet| -> Result<(), String> {
        let recv =
            |want: &str, rx: &mpsc::Receiver<(u32, String)>| -> Result<Vec<String>, String> {
                let mut got = vec![None; n as usize];
                while got.iter().any(Option::is_none) {
                    let left = deadline
                        .checked_duration_since(Instant::now())
                        .ok_or_else(|| format!("timed out waiting for {want}"))?;
                    let (rank, line) = rx
                        .recv_timeout(left)
                        .map_err(|_| format!("lost a child waiting for {want}"))?;
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
        for (rank, c) in fleet.0.iter_mut().enumerate() {
            c.stdin
                .as_mut()
                .expect("piped stdin")
                .write_all(roster.as_bytes())
                .map_err(|e| format!("roster to rank {rank}: {e}"))?;
        }
        println!("cluster: {n} processes up, roster {}", addrs.join(" "));

        let results = recv("RESULT", &rx)?;
        let mut ok = true;
        for (rank, got) in results.iter().enumerate() {
            let want = sim.results[rank];
            let verdict = if got == &want.to_string() {
                "OK"
            } else {
                "MISMATCH"
            };
            println!("rank {rank}: cluster {got} simulator {want} {verdict}");
            ok &= verdict == "OK";
        }

        // All results are in, so every barrier has released: tell the
        // children to stop serving and exit.
        for c in fleet.0.iter_mut() {
            let _ = c
                .stdin
                .as_mut()
                .expect("piped stdin")
                .write_all(b"SHUTDOWN\n");
        }
        for (rank, c) in fleet.0.iter_mut().enumerate() {
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
        fleet.kill_all();
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsm-cluster: {e}");
            eprintln!("usage: dsm-cluster [--timeout SECS] {}", CommonFlags::USAGE);
            std::process::exit(2);
        }
    };
    match args.child_rank {
        Some(rank) => {
            if let Err(e) = child(&args, rank) {
                eprintln!("dsm-cluster[{rank}]: {e}");
                std::process::exit(1);
            }
        }
        None => {
            if let Err(e) = parent(&args) {
                eprintln!("dsm-cluster: {e}");
                std::process::exit(1);
            }
        }
    }
}
