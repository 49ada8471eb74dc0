//! Scaling experiments: manager schemes (E1), application speedups
//! (E2–E4), and the synchronization-bound applications (E11, E12).

use super::Scale;
use crate::table::{print_table, xs_of, Series};
use dsm_apps::{fft, gauss, matmul, sor, taskqueue, tsp};
use dsm_core::{Dsm, DsmConfig, Dur, EntryBinding, GlobalAddr, Placement, ProtocolKind};
use dsm_net::XorShift64;

fn node_counts(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Quick => vec![1, 2, 4],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    }
}

/// Messages attributable to synchronization rather than coherence.
fn sync_msgs(stats: &dsm_core::NetStats) -> u64 {
    [
        "LockReq",
        "LockFwd",
        "LockGrant",
        "LockRel",
        "BarArrive",
        "BarRelease",
    ]
    .iter()
    .map(|k| stats.kind(k).count)
    .sum()
}

/// E1 — messages per page operation under the three IVY manager
/// schemes (Li & Hudak). Random cross-node page writes; expectation:
/// all roughly constant in N, central ≥ fixed; dynamic close to fixed
/// thanks to hint compression.
pub fn e01_managers(scale: Scale) {
    let rounds = scale.pick(6, 20);
    let pages_per_node = 2usize;
    let ns = node_counts(scale)
        .into_iter()
        .filter(|&n| n >= 2)
        .collect::<Vec<_>>();
    let schemes = [
        ProtocolKind::IvyCentral,
        ProtocolKind::IvyFixed,
        ProtocolKind::IvyDynamic,
    ];
    let mut series: Vec<Series> = schemes.iter().map(|p| Series::new(p.name())).collect();
    for &n in &ns {
        let pages = pages_per_node * n as usize;
        for (si, &proto) in schemes.iter().enumerate() {
            let cfg = DsmConfig::new(n, proto)
                .page_size(1024)
                .heap_bytes(pages * 1024)
                .max_events(50_000_000);
            let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
                let mut rng = XorShift64::new(dsm.id().0 as u64 * 7919 + 1);
                for r in 0..rounds {
                    // Write somewhere random, read somewhere random.
                    let wp = rng.below(pages as u64) as usize;
                    dsm.write_u64(
                        GlobalAddr(wp * 1024 + 8 * (dsm.id().0 as usize % 16)),
                        r as u64,
                    );
                    let rp = rng.below(pages as u64) as usize;
                    dsm.read_u64(GlobalAddr(rp * 1024));
                    dsm.barrier(0);
                }
            });
            let coher = res.stats.total_msgs() - sync_msgs(&res.stats);
            let ops = (rounds * 2) as f64 * n as f64;
            series[si].push(coher as f64 / ops);
        }
    }
    print_table(
        "E1: IVY manager schemes — coherence messages per page op",
        "nodes",
        &xs_of(&ns),
        &series,
    );
}

/// Generic speedup sweep: runs `app` on every (protocol, N), checks
/// nothing (the oracle tests do), and prints speedup = T(1)/T(N) per
/// protocol, plus message counts at the largest N.
fn speedup_sweep<F>(
    title: &str,
    scale: Scale,
    protos: &[ProtocolKind],
    heap: usize,
    page: usize,
    placement: Placement,
    app: F,
) where
    F: Fn(&Dsm<'_>) + Send + Sync + Copy,
{
    speedup_sweep_model(
        title,
        &node_counts(scale),
        protos,
        heap,
        page,
        placement,
        dsm_core::CostModel::lan_1992(),
        app,
    )
}

#[allow(clippy::too_many_arguments)]
fn speedup_sweep_model<F>(
    title: &str,
    ns: &[u32],
    protos: &[ProtocolKind],
    heap: usize,
    page: usize,
    placement: Placement,
    model: dsm_core::CostModel,
    app: F,
) where
    F: Fn(&Dsm<'_>) + Send + Sync + Copy,
{
    // times[pi][xi] in ms.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); protos.len()];
    let mut msgs: Vec<Series> = protos.iter().map(|p| Series::new(p.name())).collect();
    for &n in ns {
        for (pi, &proto) in protos.iter().enumerate() {
            let cfg = DsmConfig::new(n, proto)
                .heap_bytes(heap)
                .page_size(page)
                .placement(placement)
                .model(model.clone())
                .max_events(400_000_000);
            let res = dsm_core::run_dsm(&cfg, app);
            times[pi].push(res.end_time.as_millis_f64());
            msgs[pi].push(res.stats.total_msgs() as f64);
        }
    }
    let speed: Vec<Series> = protos
        .iter()
        .zip(&times)
        .map(|(p, t)| {
            let mut s = Series::new(p.name());
            let t1 = t[0];
            for v in t {
                s.push(t1 / v);
            }
            s
        })
        .collect();
    print_table(&format!("{title} — speedup"), "nodes", &xs_of(ns), &speed);
    print_table(
        &format!("{title} — total messages"),
        "nodes",
        &xs_of(ns),
        &msgs,
    );
}

/// The large-scale point for the headline scaling sweeps, now that the
/// fast path makes N=128 affordable.
fn node_counts_wide(scale: Scale) -> Vec<u32> {
    let mut ns = node_counts(scale);
    if scale == Scale::Full {
        ns.push(128);
    }
    ns
}

/// E2 — red-black SOR speedup per protocol (IVY-style stencil result:
/// replicating protocols scale, migration does not).
pub fn e02_sor(scale: Scale) {
    let p = sor::SorParams {
        n: scale.pick(48, 1024),
        iters: scale.pick(2, 3),
        omega: 1.25,
    };
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::IvyDynamic,
        ProtocolKind::Update,
        ProtocolKind::Erc,
        ProtocolKind::Lrc,
        ProtocolKind::Migrate,
    ];
    // Block placement: a node's rows are homed where they are computed,
    // as any real array layout would arrange. The sweep runs out to
    // N=128 at full scale.
    speedup_sweep_model(
        "E2: SOR",
        &node_counts_wide(scale),
        &protos,
        p.heap_bytes(),
        4096,
        Placement::Block,
        dsm_core::CostModel::lan_1992(),
        move |dsm: &Dsm<'_>| {
            sor::run(dsm, &p);
        },
    );
}

/// E3 — matrix multiply speedup (embarrassingly parallel; read
/// replication wins, single-copy migration collapses).
pub fn e03_matmul(scale: Scale) {
    let p = matmul::MatmulParams {
        n: scale.pick(32, 256),
    };
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::Lrc,
        ProtocolKind::Update,
        ProtocolKind::Migrate,
    ];
    speedup_sweep_model(
        "E3: MatMul",
        &node_counts_wide(scale),
        &protos,
        p.heap_bytes(),
        4096,
        Placement::Block,
        dsm_core::CostModel::lan_1992(),
        move |dsm: &Dsm<'_>| {
            matmul::run(dsm, &p);
        },
    );
}

/// E2-wide — SOR at N=1024 nodes (one interior grid row per node), the
/// widest run in the tree. Deliberately not part of
/// [`super::run_all`]: it is the CI smoke job with a wall-clock budget
/// and the source of the N=1024 rows in docs/PERF.md, so it runs
/// alone. The batched fault pipeline is on — at this scale the
/// rendezvous count, not the event count, is the wall-clock driver.
/// One fixed size: the scale is ignored.
pub fn e02_sor_n1024(_scale: Scale) {
    let p = sor::SorParams {
        n: 1026,
        iters: 2,
        omega: 1.25,
    };
    let protos = [ProtocolKind::Lrc, ProtocolKind::IvyFixed];
    let mut times: Vec<Series> = protos.iter().map(|k| Series::new(k.name())).collect();
    let mut eps: Vec<Series> = protos.iter().map(|k| Series::new(k.name())).collect();
    for (pi, &proto) in protos.iter().enumerate() {
        let cfg = DsmConfig::new(1024, proto)
            .heap_bytes(p.heap_bytes())
            .page_size(4096)
            .placement(Placement::Block)
            .batch_depth(8)
            .max_events(400_000_000);
        let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
            sor::run(dsm, &p);
        });
        times[pi].push(res.end_time.as_millis_f64());
        eps[pi].push(res.events_per_sec());
    }
    let xs = xs_of(&[1024u32]);
    print_table(
        "E2-wide: SOR, N=1024 — completion time (ms)",
        "nodes",
        &xs,
        &times,
    );
    print_table(
        "E2-wide: SOR, N=1024 — simulator throughput (events/sec)",
        "nodes",
        &xs,
        &eps,
    );
}

/// E4 — Gaussian elimination speedup (pivot-row broadcast: update
/// pushes once, invalidation re-fetches per node).
pub fn e04_gauss(scale: Scale) {
    let p = gauss::GaussParams {
        n: scale.pick(24, 400),
        row_align: 2048,
    };
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::Update,
        ProtocolKind::Lrc,
        ProtocolKind::Erc,
    ];
    // Cyclic placement matches the cyclic row distribution.
    speedup_sweep(
        "E4: Gauss",
        scale,
        &protos,
        p.heap_bytes(),
        2048,
        Placement::Cyclic,
        move |dsm: &Dsm<'_>| {
            gauss::run(dsm, &p);
        },
    );
}

/// E15 — FFT speedup: local row FFTs separated by an all-to-all
/// transpose. The transpose is bandwidth-bound; diff-based protocols
/// cannot help (every byte is fresh), so the protocols bunch together
/// and the transpose sets the scaling ceiling.
pub fn e15_fft(scale: Scale) {
    let p = fft::FftParams {
        rows: scale.pick(16, 512),
        cols: scale.pick(16, 512),
    };
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::Lrc,
        ProtocolKind::Erc,
        ProtocolKind::Migrate,
    ];
    // The transpose makes FFT compute:communication ≈ 1:1 on 10 Mbit
    // Ethernet — it only scales once the network improves, which is the
    // point this figure makes (TreadMarks' own move to ATM).
    for (label, model) in [
        ("10Mbit Ethernet", dsm_core::CostModel::lan_1992()),
        ("100Mbit ATM", dsm_core::CostModel::atm_1994()),
    ] {
        speedup_sweep_model(
            &format!("E15: FFT (2-D decomposition), {label}"),
            &node_counts(scale),
            &protos,
            p.heap_bytes(),
            2048,
            Placement::Block,
            model,
            move |dsm: &Dsm<'_>| {
                fft::run(dsm, &p);
            },
        );
    }
}

/// E11 — entry consistency vs LRC/ERC on the master-worker task queue
/// (Midway's claim: shipping the guarded data with the lock wins at
/// fine grain).
pub fn e11_entry_vs_lrc(scale: Scale) {
    let protos = [ProtocolKind::Entry, ProtocolKind::Lrc, ProtocolKind::Erc];
    for (label, task_time) in [
        ("fine grain (0.5ms tasks)", Dur::micros(500)),
        ("coarse grain (10ms tasks)", Dur::millis(10)),
    ] {
        let p = taskqueue::TaskQueueParams {
            tasks: scale.pick(16, 96),
            task_time,
            produce_time: Dur::micros(50),
            poll: Dur::micros(500),
        };
        let ns: Vec<u32> = node_counts(scale).into_iter().filter(|&n| n >= 2).collect();
        let mut series: Vec<Series> = protos.iter().map(|k| Series::new(k.name())).collect();
        for &n in &ns {
            for (pi, &proto) in protos.iter().enumerate() {
                let (lock, addr, len) = p.binding();
                let mut cfg = DsmConfig::new(n, proto)
                    .heap_bytes(p.heap_bytes())
                    .page_size(1024)
                    .max_events(100_000_000);
                cfg.bindings = vec![EntryBinding { lock, addr, len }];
                let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
                    taskqueue::run(dsm, &p);
                });
                series[pi].push(res.end_time.as_millis_f64());
            }
        }
        print_table(
            &format!("E11: task queue, {label} — completion time (ms)"),
            "nodes",
            &xs_of(&ns),
            &series,
        );
    }
}

/// E12 — TSP branch and bound (migratory lock-guarded state).
pub fn e12_tsp(scale: Scale) {
    let p = tsp::TspParams {
        cities: scale.pick(7, 8),
        seed: 42,
        capacity: 1 << 12,
        poll: Dur::micros(500),
    };
    let want = tsp::reference(&p);
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::Lrc,
        ProtocolKind::Entry,
    ];
    let ns: Vec<u32> = node_counts(scale).into_iter().filter(|&n| n <= 8).collect();
    let mut series: Vec<Series> = protos.iter().map(|k| Series::new(k.name())).collect();
    for &n in &ns {
        for (pi, &proto) in protos.iter().enumerate() {
            let (lock, addr, len) = p.binding();
            let mut cfg = DsmConfig::new(n, proto)
                .heap_bytes(p.heap_bytes())
                .page_size(1024)
                .max_events(400_000_000);
            cfg.bindings = vec![EntryBinding { lock, addr, len }];
            let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| tsp::run(dsm, &p));
            assert!(
                res.results.iter().all(|&b| b == want),
                "tsp {proto} n={n}: wrong optimum"
            );
            series[pi].push(res.end_time.as_millis_f64());
        }
    }
    print_table(
        "E12: TSP branch & bound — completion time (ms, optimum verified)",
        "nodes",
        &xs_of(&ns),
        &series,
    );
}
