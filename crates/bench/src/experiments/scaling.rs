//! Scaling experiments: manager schemes (E1), application speedups
//! (E2–E4), and the synchronization-bound applications (E11, E12).

use super::{checked, ms, msgs, speedup, sweep, Metric, Scale};
use dsm_apps::{fft, gauss, matmul, sor, taskqueue, tsp, App};
use dsm_core::{CostModel, Dsm, DsmConfig, Dur, GlobalAddr, Placement, ProtocolKind};
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
    let per_op: Metric<()> = (" — coherence messages per page op", &|_, r| {
        let coher = r.stats.total_msgs() - sync_msgs(&r.stats);
        let ops = (rounds * 2) as f64 * r.results.len() as f64;
        coher as f64 / ops
    });
    let labels = schemes.map(ProtocolKind::name);
    sweep(
        "E1: IVY manager schemes",
        "nodes",
        &ns,
        &labels,
        &[per_op],
        |n, c| {
            let pages = pages_per_node * n as usize;
            let cfg = DsmConfig::new(n, schemes[c])
                .page_size(1024)
                .heap_bytes(pages * 1024)
                .max_events(50_000_000);
            dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
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
            })
        },
    );
}

/// Speedup sweep: `app` on every (N, protocol), on the machine
/// `machine` makes of `DsmConfig::new(n, proto)`, each run checked;
/// prints speedup = T(1)/T(N) per protocol, then total messages.
fn speedup_sweep<A: App + Clone>(
    title: &str,
    ns: &[u32],
    protos: &[ProtocolKind],
    app: A,
    machine: impl Fn(DsmConfig) -> DsmConfig,
) {
    let labels: Vec<_> = protos.iter().map(|p| p.name()).collect();
    sweep(title, "nodes", ns, &labels, &[speedup(), msgs()], |n, c| {
        let cfg = DsmConfig::new(n, protos[c]).max_events(400_000_000);
        checked(title, app.clone(), machine(cfg))
    });
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
    speedup_sweep("E2: SOR", &node_counts_wide(scale), &protos, p, |cfg| {
        cfg.placement(Placement::Block).model(CostModel::lan_1992())
    });
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
    speedup_sweep("E3: MatMul", &node_counts_wide(scale), &protos, p, |cfg| {
        cfg.placement(Placement::Block).model(CostModel::lan_1992())
    });
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
    let eps: Metric = (" — simulator throughput (events/sec)", &|_, r| {
        r.events_per_sec()
    });
    let title = "E2-wide: SOR, N=1024";
    sweep(
        title,
        "nodes",
        &[1024],
        &protos.map(ProtocolKind::name),
        &[ms(), eps],
        |n, c| {
            let cfg = DsmConfig::new(n, protos[c])
                .placement(Placement::Block)
                .batch_depth(8)
                .max_events(400_000_000);
            checked(title, p, cfg)
        },
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
    speedup_sweep("E4: Gauss", &node_counts(scale), &protos, p, |cfg| {
        cfg.page_size(2048).model(CostModel::lan_1992())
    });
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
        ("10Mbit Ethernet", CostModel::lan_1992()),
        ("100Mbit ATM", CostModel::atm_1994()),
    ] {
        let title = format!("E15: FFT (2-D decomposition), {label}");
        speedup_sweep(&title, &node_counts(scale), &protos, p, |cfg| {
            cfg.page_size(2048)
                .placement(Placement::Block)
                .model(model.clone())
        });
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
        let title = format!("E11: task queue, {label}");
        sweep(
            &title,
            "nodes",
            &ns,
            &protos.map(ProtocolKind::name),
            &[ms()],
            |n, c| {
                let cfg = DsmConfig::new(n, protos[c])
                    .page_size(1024)
                    .max_events(100_000_000);
                checked(&title, p, cfg)
            },
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
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::Lrc,
        ProtocolKind::Entry,
    ];
    let ns: Vec<u32> = node_counts(scale).into_iter().filter(|&n| n <= 8).collect();
    let ms = (" — completion time (ms, optimum verified)", ms().1);
    let title = "E12: TSP branch & bound";
    sweep(
        title,
        "nodes",
        &ns,
        &protos.map(ProtocolKind::name),
        &[ms],
        |n, c| {
            let cfg = DsmConfig::new(n, protos[c])
                .page_size(1024)
                .max_events(400_000_000);
            checked(title, p, cfg)
        },
    );
}
