//! E20 — interconnect-era sweep: the protocol suite re-ranked across
//! five machine rooms, from the 1992 10 Mbit LAN to a modern RDMA
//! fabric.
//!
//! The 1992 report's protocol ranking is a function of its network:
//! when a page fault costs milliseconds of wire time, protocols that
//! trade messages for staleness (LRC's lazy diffs) or piggyback data on
//! synchronization win. As the per-byte and per-message costs fall by
//! four orders of magnitude, the bottleneck moves to protocol round
//! trips and software overhead — and on a fabric with one-sided
//! operations, the `rdma` protocol serves read faults at the NIC
//! without scheduling the home's CPU at all. The headline artifacts are
//! the per-era completion-time table, the per-era ranking, and the
//! explicit list of ranking inversions between `lan_1992` and
//! `rdma_modern`.
//!
//! The workload is E2's red-black SOR (read-dominated neighbor
//! sharing, block placement) so the eras — not the workload — are the
//! only moving part. The grid is deliberately sized
//! *communication-bound*: on a µs-class fabric a large grid is pure
//! modeled compute and every protocol collapses onto the same memory
//! floor (at SOR n=256 the whole suite lands within 1% of 87 ms on
//! `rdma_modern` — a finding in itself, but one that turns the ranking
//! into noise). A small grid over many nodes keeps the boundary
//! exchange on the critical path at every era, so the per-era ranks
//! stay meaningful.

use super::Scale;
use crate::table::{print_table, Series};
use dsm_apps::sor;
use dsm_core::{CostModel, Dsm, DsmConfig, Placement, ProtocolKind};

/// The compared suite: E2's protocols plus the one-sided `rdma`
/// protocol this sweep exists to place (entry consistency sits out —
/// SOR has no lock↔data bindings to ride on).
const PROTOS: [ProtocolKind; 7] = [
    ProtocolKind::IvyFixed,
    ProtocolKind::IvyDynamic,
    ProtocolKind::Update,
    ProtocolKind::Erc,
    ProtocolKind::Lrc,
    ProtocolKind::Migrate,
    ProtocolKind::Rdma,
];

pub fn e20_eras(scale: Scale) {
    let p = sor::SorParams {
        n: scale.pick(48, 64),
        iters: scale.pick(2, 3),
        omega: 1.25,
    };
    let nodes: u32 = scale.pick(4, 8);
    let eras = CostModel::ERA_NAMES;
    let xs: Vec<String> = eras.iter().map(|e| e.to_string()).collect();

    // times[pi][ei] in virtual ms.
    let mut times = vec![vec![0f64; eras.len()]; PROTOS.len()];
    let mut time_series: Vec<Series> = PROTOS.iter().map(|k| Series::new(k.name())).collect();
    for (ei, era) in eras.iter().enumerate() {
        for (pi, &proto) in PROTOS.iter().enumerate() {
            let cfg = DsmConfig::new(nodes, proto)
                .heap_bytes(p.heap_bytes())
                .page_size(4096)
                .placement(Placement::Block)
                .model(CostModel::era(era).expect("era preset"))
                .max_events(400_000_000);
            let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
                sor::run(dsm, &p);
            });
            times[pi][ei] = res.end_time.as_millis_f64();
            time_series[pi].push(res.end_time.as_millis_f64());
        }
    }
    print_table(
        "E20: SOR across interconnect eras — completion time (ms)",
        "net",
        &xs,
        &time_series,
    );

    // Per-era ranking, 1 = fastest (ties broken by suite order).
    let order_in = |ei: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..PROTOS.len()).collect();
        idx.sort_by(|&a, &b| times[a][ei].total_cmp(&times[b][ei]));
        idx
    };
    let mut rank_series: Vec<Series> = PROTOS.iter().map(|k| Series::new(k.name())).collect();
    for ei in 0..eras.len() {
        let order = order_in(ei);
        for (place, &pi) in order.iter().enumerate() {
            rank_series[pi].values.resize(ei, f64::NAN);
            rank_series[pi].values.push((place + 1) as f64);
        }
    }
    print_table(
        "E20: protocol rank per era (1 = fastest)",
        "net",
        &xs,
        &rank_series,
    );

    // The point of the sweep: which pairwise verdicts flip between the
    // 1992 machine room and the modern fabric.
    println!("== E20: ranking inversions, lan_1992 vs rdma_modern");
    let (lan, modern) = (0, eras.len() - 1);
    let mut any = false;
    for a in 0..PROTOS.len() {
        for b in a + 1..PROTOS.len() {
            let a_wins_lan = times[a][lan] < times[b][lan];
            let a_wins_modern = times[a][modern] < times[b][modern];
            if a_wins_lan != a_wins_modern {
                let (w92, l92) = if a_wins_lan { (a, b) } else { (b, a) };
                println!(
                    "  {} beats {} on lan_1992, but {} beats {} on rdma_modern",
                    PROTOS[w92].name(),
                    PROTOS[l92].name(),
                    PROTOS[l92].name(),
                    PROTOS[w92].name(),
                );
                any = true;
            }
        }
    }
    if !any {
        println!("  (none)");
    }
    println!();
}
