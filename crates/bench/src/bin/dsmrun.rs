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

use dsm_apps::{chase, fft, gauss, jacobi, kv, matmul, sor, sort, taskqueue, tsp};
use dsm_bench::cli::{apply, parse_crash, parse_partition, CommonFlags, CrashSpec, PartitionSpec};
use dsm_core::{
    BarrierKind, Can, CostModel, Dsm, DsmConfig, Dur, EntryBinding, Facts, FaultPlan, LockKind,
    NetStats, Placement, ProtocolKind, RunResult, SimTime,
};

struct Args {
    common: CommonFlags,
    app: String,
    size: usize,
    placement: Placement,
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

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        common: CommonFlags::default(),
        app: "sor".into(),
        size: 0, // 0 = app default
        placement: Placement::Block,
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
                println!("apps:      sor jacobi matmul gauss fft sort taskqueue tsp chase kv");
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
            "--app" => args.app = val()?,
            "--size" => args.size = val()?.parse().map_err(|e| format!("{e}"))?,
            "--placement" => {
                args.placement = match val()?.as_str() {
                    "block" => Placement::Block,
                    "cyclic" => Placement::Cyclic,
                    "zero" => Placement::Zero,
                    other => return Err(format!("unknown placement {other}")),
                }
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
    // Smaller than this an app indexes outside its own grid.
    match (args.app.as_str(), args.size) {
        (_, 0) => {} // the app's default
        ("sor" | "jacobi", 1) => {
            return Err(format!("--app {} needs --size of at least 2", args.app))
        }
        ("fft", s) if !s.is_power_of_two() => {
            return Err(format!("--app fft needs a power-of-two --size, not {s}"))
        }
        _ => {}
    }
    Ok(args)
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
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsmrun: {e}");
            eprintln!(
                "usage: dsmrun --app <name> [--size S] [--placement P] [--lock K] \
                 [--barrier K] [--no-fast-path] [--no-lrc-gc] {} [--drop-prob P] \
                 [--dup-prob P] [--fault-seed S] [--crash node@t_us[:recover_us]]... \
                 [--partition a,b|c,d@t1..t2]... | --list\n\
                 apps: sor jacobi matmul gauss fft sort taskqueue tsp chase kv \
                 (kv: the E21 Zipf board, --size = operations per node)",
                CommonFlags::USAGE
            );
            std::process::exit(2);
        }
    };

    let base = |heap: usize| {
        let c = &a.common;
        let mut cfg = DsmConfig::new(c.nodes, c.proto);
        if let Some(model) = c.model() {
            cfg.model = model;
        }
        cfg.heap_bytes(heap)
            .page_size(c.page)
            .placement(a.placement)
            .lock_kind(a.lock)
            .barrier_kind(a.barrier)
            .fast_path(a.fast_path)
            .lrc_gc(a.lrc_gc)
            .batch_depth(c.batch_depth)
            .max_events(2_000_000_000)
            .faults(apply(
                FaultPlan::lossy(a.drop_prob, a.dup_prob, a.fault_seed),
                &a.crashes,
                &a.partitions,
            ))
    };

    /// What is printed of a run, its verdict included: completion time,
    /// traffic, and the simulator's (events, events/sec).
    fn done<V>(res: RunResult<V>, ok: bool) -> (SimTime, NetStats, bool, (u64, f64)) {
        let thru = (res.events, res.events_per_sec());
        (res.end_time, res.stats, ok, thru)
    }

    // Of the apps, `kv` and `sort` have nodes writing distinct bytes of
    // one page with nothing but a later barrier between them.
    if let ("kv" | "sort", Err(why)) = (a.app.as_str(), a.common.proto.facts().sub_page_writers) {
        eprintln!(
            "dsmrun: --app {} cannot run under `{}`: its nodes write distinct bytes of one \
             page concurrently — {why}",
            a.app, a.common.proto
        );
        std::process::exit(2);
    }

    let (end, stats, verdict, (events, eps)) = match a.app.as_str() {
        "sor" => {
            let p = sor::SorParams {
                n: if a.size == 0 { 128 } else { a.size },
                iters: 3,
                omega: 1.25,
            };
            let res = dsm_core::run_dsm(&base(p.heap_bytes()), move |d: &Dsm<'_>| sor::run(d, &p));
            let ok = res.results.iter().enumerate().all(|(i, &got)| {
                (got - sor::reference_block_sum(&p, a.common.nodes as usize, i)).abs() < 1e-9
            });
            done(res, ok)
        }
        "jacobi" => {
            let p = jacobi::JacobiParams {
                n: if a.size == 0 { 64 } else { a.size },
                iters: 3,
            };
            let res =
                dsm_core::run_dsm(&base(p.heap_bytes()), move |d: &Dsm<'_>| jacobi::run(d, &p));
            let ok = res.results.iter().enumerate().all(|(i, &got)| {
                (got - jacobi::reference_block_sum(&p, a.common.nodes as usize, i)).abs() < 1e-9
            });
            done(res, ok)
        }
        "matmul" => {
            let p = matmul::MatmulParams {
                n: if a.size == 0 { 64 } else { a.size },
            };
            let res =
                dsm_core::run_dsm(&base(p.heap_bytes()), move |d: &Dsm<'_>| matmul::run(d, &p));
            let ok = res.results.iter().enumerate().all(|(i, &got)| {
                (got - matmul::reference_block_sum(&p, a.common.nodes as usize, i)).abs() < 1e-9
            });
            done(res, ok)
        }
        "gauss" => {
            let p = gauss::GaussParams {
                n: if a.size == 0 { 64 } else { a.size },
                row_align: a.common.page,
            };
            let want = gauss::reference(&p);
            let res =
                dsm_core::run_dsm(&base(p.heap_bytes()), move |d: &Dsm<'_>| gauss::run(d, &p));
            let ok = res
                .results
                .iter()
                .all(|x| x.iter().zip(&want).all(|(g, w)| (g - w).abs() < 1e-9));
            done(res, ok)
        }
        "fft" => {
            let s = if a.size == 0 { 64 } else { a.size };
            let p = fft::FftParams { rows: s, cols: s };
            let res = dsm_core::run_dsm(&base(p.heap_bytes()), move |d: &Dsm<'_>| fft::run(d, &p));
            let ok = res.results.iter().enumerate().all(|(i, &got)| {
                (got - fft::reference_block_sum(&p, a.common.nodes as usize, i)).abs() < 1e-6
            });
            done(res, ok)
        }
        "sort" => {
            let p = sort::SortParams {
                n: if a.size == 0 { 4096 } else { a.size },
                seed: 7,
            };
            let want = sort::reference(&p);
            let res = dsm_core::run_dsm(
                &base(p.heap_bytes(a.common.nodes as usize)),
                move |d: &Dsm<'_>| {
                    sort::run(d, &p);
                    if d.id().0 == 0 {
                        sort::read_output(d, &p)
                    } else {
                        Vec::new()
                    }
                },
            );
            let ok = res.results[0] == want;
            done(res, ok)
        }
        "taskqueue" => {
            let p = taskqueue::TaskQueueParams {
                tasks: if a.size == 0 { 64 } else { a.size },
                task_time: Dur::millis(2),
                produce_time: Dur::micros(100),
                poll: Dur::micros(500),
            };
            let (lock, addr, len) = p.binding();
            let mut cfg = base(p.heap_bytes());
            cfg.bindings = vec![EntryBinding { lock, addr, len }];
            let (ws, wx) = taskqueue::expected_digest(&p);
            let res = dsm_core::run_dsm(&cfg, move |d: &Dsm<'_>| taskqueue::run(d, &p));
            let sum: u64 = res.results.iter().map(|r| r.id_sum).sum();
            let xor: u64 = res.results.iter().fold(0, |x, r| x ^ r.id_xor);
            done(res, (sum, xor) == (ws, wx))
        }
        "chase" => {
            // Page build for page protocols; under a protocol that
            // answers object ops (`--proto obj`) the same chase runs
            // over allocated objects (E22's workload).
            let p = chase::ChaseParams {
                chain_len: if a.size == 0 { 32 } else { a.size },
                rounds: 8,
                think: Dur::micros(5),
            };
            let expected = p.expected();
            let nodes = a.common.nodes;
            let res = if a.common.proto.facts().object_ops.is_ok() {
                let (heap, chains) = chase::build_obj_chains(&p, nodes);
                let mut cfg = base(p.heap_bytes(nodes as usize));
                cfg.objects = heap.table();
                dsm_core::run_dsm(&cfg, move |d: &Dsm<'_>| chase::run_obj(d, &p, &chains))
            } else {
                dsm_core::run_dsm(&base(p.heap_bytes(nodes as usize)), move |d: &Dsm<'_>| {
                    chase::run_pages(d, &p)
                })
            };
            let ok = res.results.iter().all(|&v| v == expected);
            done(res, ok)
        }
        "tsp" => {
            let p = tsp::TspParams {
                cities: if a.size == 0 { 8 } else { a.size },
                seed: 42,
                capacity: 1 << 12,
                poll: Dur::micros(500),
            };
            let (lock, addr, len) = p.binding();
            let mut cfg = base(p.heap_bytes());
            cfg.bindings = vec![EntryBinding { lock, addr, len }];
            let want = tsp::reference(&p);
            let res = dsm_core::run_dsm(&cfg, move |d: &Dsm<'_>| tsp::run(d, &p));
            let ok = res.results.iter().all(|&b| b == want);
            done(res, ok)
        }
        "kv" => {
            // The E21 board as the benchmark's `sim_kv_*` workloads run
            // it; `--size` is the run length (operations per node).
            let p = kv::KvParams {
                keys: 512,
                ops_per_node: if a.size == 0 { 1200 } else { a.size },
                read_pct: 80,
                skew: 0.99,
                stripes: 16,
                seed: 21,
            };
            let mut cfg = base(p.heap_bytes());
            let binding = |(lock, addr, len)| EntryBinding { lock, addr, len };
            cfg.bindings = p.bindings().map(binding).collect();
            let want = kv::reference_digest(&p, a.common.nodes as usize);
            let res = dsm_core::run_dsm(&cfg, move |d: &Dsm<'_>| kv::run(d, &p));
            let ok = res.results.iter().all(|&d| d == want);
            done(res, ok)
        }
        other => {
            eprintln!("dsmrun: unknown app {other} (try --list)");
            std::process::exit(2);
        }
    };

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
        a.app,
        a.common.proto.name(),
        a.common.nodes,
        a.common.page,
        a.placement,
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
