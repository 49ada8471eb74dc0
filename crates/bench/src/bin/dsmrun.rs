//! `dsmrun` — command-line driver: run any application kernel under any
//! protocol/lock/barrier/page-size combination and print the time,
//! traffic, and verification verdict.
//!
//! ```sh
//! dsmrun --app sor --proto lrc --nodes 8 --page 4096 --size 256
//! dsmrun --app taskqueue --proto entry --nodes 16
//! dsmrun --app kv --proto lrc --nodes 8 --page 1024 --size 4800
//! dsmrun --list
//! ```

use dsm_apps::App;
use dsm_bench::cli::{apply, parse_crash, parse_partition, CommonFlags, CrashSpec, PartitionSpec};
use dsm_core::{BarrierKind, Can, CostModel, Facts, FaultPlan, LockKind, Placement, ProtocolKind};

struct Args {
    common: CommonFlags,
    /// `None` keeps `DsmConfig`'s default, as `dsm-cluster` does.
    placement: Option<Placement>,
    lock: LockKind,
    barrier: BarrierKind,
    fast_path: bool,
    lrc_gc: bool,
    /// The simulator's injected faults (`dsm-cluster` takes none).
    drop_prob: f64,
    dup_prob: f64,
    fault_seed: u64,
    crashes: Vec<CrashSpec>,
    partitions: Vec<PartitionSpec>,
}

/// The flags, and the app they ask for configured on the machine they
/// describe.
fn parse_args() -> Result<(Args, dsm_apps::Run), String> {
    let mut args = Args {
        common: CommonFlags::default(),
        placement: None,
        lock: LockKind::Queue,
        barrier: BarrierKind::Central,
        fast_path: true,
        lrc_gc: true,
        drop_prob: 0.0,
        dup_prob: 0.0,
        fault_seed: 1,
        crashes: Vec::new(),
        partitions: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => {
                println!("apps:      {}", dsm_apps::APPS.join(" "));
                println!(
                    "protocols: {}",
                    ProtocolKind::EVERY.map(|p| p.name()).join(" ")
                );
                println!("locks:     queue central");
                println!("barriers:  central tree2 tree4");
                println!("placement: block cyclic zero");
                println!("nets:      {}", CostModel::ERA_NAMES.join(" "));
                println!("\n{}", Facts::TABLE_HEAD);
                for p in ProtocolKind::EVERY {
                    println!("{}", p.facts().table_row());
                }
                print_refusals("object_ops", |f| f.object_ops);
                print_refusals("sub_page_writers", |f| f.sub_page_writers);
                print_refusals("page_fault_driven", |f| f.page_fault_driven);
                std::process::exit(0);
            }
            "--placement" => {
                args.placement = Some(match val()?.as_str() {
                    "block" => Placement::Block,
                    "cyclic" => Placement::Cyclic,
                    "zero" => Placement::Zero,
                    other => return Err(format!("unknown placement {other}")),
                })
            }
            "--lock" => {
                args.lock = match val()?.as_str() {
                    "queue" => LockKind::Queue,
                    "central" => LockKind::Central,
                    other => return Err(format!("unknown lock {other}")),
                }
            }
            "--barrier" => {
                args.barrier = match val()?.as_str() {
                    "central" => BarrierKind::Central,
                    "tree2" => BarrierKind::Tree(2),
                    "tree4" => BarrierKind::Tree(4),
                    other => return Err(format!("unknown barrier {other}")),
                }
            }
            "--no-fast-path" => args.fast_path = false,
            "--no-lrc-gc" => args.lrc_gc = false,
            "--drop-prob" => {
                args.drop_prob = val()?.parse().map_err(|e| format!("--drop-prob: {e}"))?;
            }
            "--dup-prob" => {
                args.dup_prob = val()?.parse().map_err(|e| format!("--dup-prob: {e}"))?;
            }
            "--fault-seed" => {
                args.fault_seed = val()?.parse().map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--crash" => args.crashes.push(parse_crash(&val()?)?),
            "--partition" => args.partitions.push(parse_partition(&val()?)?),
            other => {
                // Everything else is the vocabulary shared with
                // `dsm-cluster`.
                if !args.common.take(other, &mut it)? {
                    return Err(format!("unknown flag {other} (try --list)"));
                }
            }
        }
    }
    args.common.validate()?;
    // A probability of 1 or more would end in the watchdog, a node
    // outside the run in a panic.
    for (flag, p) in [
        ("--drop-prob", args.drop_prob),
        ("--dup-prob", args.dup_prob),
    ] {
        if !(0.0..1.0).contains(&p) {
            return Err(format!("{flag} {p} must be in [0, 1)"));
        }
    }
    let nodes = args.common.nodes;
    let crashed = args.crashes.iter().map(|c| ("--crash", c.node));
    let cut = args.partitions.iter().flat_map(|p| p.a.iter().chain(&p.b));
    let mut named = crashed.chain(cut.map(|&n| ("--partition", n)));
    if let Some((flag, node)) = named.find(|&(_, node)| node >= nodes) {
        return Err(format!(
            "{flag} names node {node} but the run has {nodes} nodes"
        ));
    }
    let c = &args.common;
    let cfg = c.config();
    let placement = args.placement.unwrap_or(cfg.placement);
    let cfg = cfg
        .placement(placement)
        .lock_kind(args.lock)
        .barrier_kind(args.barrier)
        .fast_path(args.fast_path)
        .lrc_gc(args.lrc_gc)
        .max_events(2_000_000_000)
        .faults(apply(
            FaultPlan::lossy(args.drop_prob, args.dup_prob, args.fault_seed),
            &args.crashes,
            &args.partitions,
        ));
    let run = dsm_apps::plan(&c.app, c.size, cfg)?;
    Ok((args, run))
}

/// Under the protocol table: every "no" of one column with the reason
/// its row gives, protocols that share a reason on one line.
fn print_refusals(column: &str, can: fn(&Facts) -> Can) {
    let mut reasons: Vec<(&str, Vec<&str>)> = Vec::new();
    for facts in ProtocolKind::EVERY.map(ProtocolKind::facts) {
        let Err(why) = can(facts) else { continue };
        match reasons.iter_mut().find(|(r, _)| *r == why) {
            Some((_, names)) => names.push(facts.name),
            None => reasons.push((why, vec![facts.name])),
        }
    }
    for (why, names) in reasons {
        println!("no {column} ({}): {why}", names.join(" "));
    }
}

fn main() {
    let (a, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dsmrun: {e}");
            eprintln!(
                "usage: dsmrun [--placement P] [--lock K] [--barrier K] [--no-fast-path] \
                 [--no-lrc-gc] {} [--drop-prob P] [--dup-prob P] [--fault-seed S] \
                 [--crash node@t_us[:recover_us]]... [--partition a,b|c,d@t1..t2]... | --list\n\
                 apps: {} (kv: the E21 Zipf board, --size = operations per node)",
                CommonFlags::USAGE,
                dsm_apps::APPS.join(" ")
            );
            std::process::exit(2);
        }
    };
    let res = dsm_core::run_dsm(&run.cfg, |d| run.app.sim_program(d));
    let verdict = run.app.verdict(&res.results);
    let (end, events, eps) = (res.end_time, res.events, res.events_per_sec());
    let stats = res.stats;

    // Label the era actually in effect: the --net flag wins, else a
    // recognized DSM_NET (the same resolution DsmConfig::new applies),
    // else the lan_1992 default.
    let net_label = a.common.net.clone().or_else(|| {
        std::env::var("DSM_NET")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| CostModel::era(v).is_some())
    });
    println!(
        "app={} proto={} nodes={} page={}B placement={:?} net={}",
        a.common.app,
        a.common.proto.name(),
        a.common.nodes,
        a.common.page,
        run.cfg.placement,
        net_label.as_deref().unwrap_or("lan_1992")
    );
    if a.common.batch_depth > 1 {
        println!("pipeline: batch-depth={}", a.common.batch_depth);
    }
    if a.drop_prob > 0.0 || a.dup_prob > 0.0 {
        println!(
            "faults: drop={} dup={} seed={} (reliable transport engaged)",
            a.drop_prob, a.dup_prob, a.fault_seed
        );
    }
    for c in &a.crashes {
        match c.recover {
            Some(r) => println!("crash: node {} at {}, recovers at {r}", c.node, c.at),
            None => println!("crash: node {} at {} (permanent)", c.node, c.at),
        }
    }
    for p in &a.partitions {
        println!(
            "partition: {:?} | {:?} during {}..{}",
            p.a, p.b, p.from, p.until
        );
    }
    println!("virtual completion time: {end}");
    // Wall-clock throughput goes to stderr: stdout stays byte-identical
    // across repeats (the determinism contract `diff` checks ride on).
    eprintln!("simulator: {events} events, {eps:.0} events/sec");
    println!("verification: {}", if verdict { "OK" } else { "MISMATCH" });
    println!("\n{stats}");
    if !verdict {
        std::process::exit(1);
    }
}
