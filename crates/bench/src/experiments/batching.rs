//! E17 — the batched multi-page fault pipeline: completion time,
//! message counts, and kernel rendezvous as a function of batch depth.
//!
//! Sequential kernels declare read-ahead windows (`Dsm::prefetch_window`),
//! so a page miss hands the protocol up to `depth` pages to fetch in
//! one rendezvous, with per-destination request/reply coalescing into
//! `Batch` envelopes. Depth 1 is the unbatched baseline (bit-identical
//! to the pre-pipeline runtime); the sweep shows how much of the
//! fixed per-fault latency the pipeline recovers on streaming access
//! patterns, per protocol and application.

use super::{checked, ms, msgs, sweep, Metric, Scale};
use dsm_apps::{fft, matmul, sor, App};
use dsm_core::{DsmConfig, Placement, ProtocolKind};

fn depths(scale: Scale) -> Vec<usize> {
    scale.pick(vec![1, 4], vec![1, 2, 4, 8])
}

/// The protocols with multi-page request paths (the rest accept the
/// envelopes but gain nothing, so the sweep skips them).
const PROTOS: [ProtocolKind; 3] = [
    ProtocolKind::IvyDynamic,
    ProtocolKind::Lrc,
    ProtocolKind::Migrate,
];

/// Sweep one application over (protocol × depth), each run held to
/// the app's verdict; prints completion time, total messages, and
/// rendezvous tables.
fn depth_sweep<A: App + Clone>(scale: Scale, nodes: u32, app: A) {
    let title = format!("E17: batched fault pipeline, {}", app.name());
    let rdv: Metric = (" — kernel rendezvous", &|_, r| r.rendezvous as f64);
    let labels = PROTOS.map(ProtocolKind::name);
    sweep(
        &title,
        "depth",
        &depths(scale),
        &labels,
        &[ms(), msgs(), rdv],
        |depth, c| {
            let cfg = DsmConfig::new(nodes, PROTOS[c])
                .page_size(1024)
                .placement(Placement::Block)
                .model(dsm_core::CostModel::lan_1992())
                .batch_depth(depth)
                .max_events(400_000_000);
            checked(&title, app.clone(), cfg)
        },
    );
}

/// E17 — batch-depth sweep over matmul, FFT, and SOR on the 10 Mbit
/// Ethernet model. Expectation: streaming-read applications (matmul's
/// B matrix, FFT's transpose) recover most of the per-fault round-trip
/// latency by depth 8 with no extra messages; SOR's short hinted
/// windows gain less.
pub fn e17_batching(scale: Scale) {
    let nodes = scale.pick(4u32, 8);

    let mm = matmul::MatmulParams {
        n: scale.pick(32, 96),
    };
    depth_sweep(scale, nodes, mm);

    let fp = fft::FftParams {
        rows: scale.pick(16, 64),
        cols: scale.pick(16, 64),
    };
    depth_sweep(scale, nodes, fp);

    let sp = sor::SorParams {
        n: scale.pick(48, 256),
        iters: 2,
        omega: 1.25,
    };
    depth_sweep(scale, nodes, sp);
}
