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

use super::Scale;
use crate::table::{print_table, xs_of, Series};
use dsm_apps::{fft, matmul, sor};
use dsm_core::{Dsm, DsmConfig, Placement, ProtocolKind};

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

/// Sweep one application over (protocol × depth); prints completion
/// time, total messages, and rendezvous tables.
fn depth_sweep<F>(app: &str, scale: Scale, nodes: u32, heap: usize, page: usize, run: F)
where
    F: Fn(&Dsm<'_>) + Send + Sync + Copy,
{
    let ds = depths(scale);
    let mut time: Vec<Series> = PROTOS.iter().map(|p| Series::new(p.name())).collect();
    let mut msgs: Vec<Series> = PROTOS.iter().map(|p| Series::new(p.name())).collect();
    let mut rdv: Vec<Series> = PROTOS.iter().map(|p| Series::new(p.name())).collect();
    for &depth in &ds {
        for (pi, &proto) in PROTOS.iter().enumerate() {
            let cfg = DsmConfig::new(nodes, proto)
                .heap_bytes(heap)
                .page_size(page)
                .placement(Placement::Block)
                .model(dsm_core::CostModel::lan_1992())
                .batch_depth(depth)
                .max_events(400_000_000);
            let res = dsm_core::run_dsm(&cfg, run);
            time[pi].push(res.end_time.as_millis_f64());
            msgs[pi].push(res.stats.total_msgs() as f64);
            rdv[pi].push(res.rendezvous as f64);
        }
    }
    let xs = xs_of(&ds);
    print_table(
        &format!("E17: batched fault pipeline, {app} — completion time (ms)"),
        "depth",
        &xs,
        &time,
    );
    print_table(
        &format!("E17: batched fault pipeline, {app} — total messages"),
        "depth",
        &xs,
        &msgs,
    );
    print_table(
        &format!("E17: batched fault pipeline, {app} — kernel rendezvous"),
        "depth",
        &xs,
        &rdv,
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
    depth_sweep(
        "matmul",
        scale,
        nodes,
        mm.heap_bytes(),
        1024,
        move |dsm: &Dsm<'_>| {
            matmul::run(dsm, &mm);
        },
    );

    let fp = fft::FftParams {
        rows: scale.pick(16, 64),
        cols: scale.pick(16, 64),
    };
    depth_sweep(
        "fft",
        scale,
        nodes,
        fp.heap_bytes(),
        1024,
        move |dsm: &Dsm<'_>| {
            fft::run(dsm, &fp);
        },
    );

    let sp = sor::SorParams {
        n: scale.pick(48, 256),
        iters: 2,
        omega: 1.25,
    };
    depth_sweep(
        "sor",
        scale,
        nodes,
        sp.heap_bytes(),
        1024,
        move |dsm: &Dsm<'_>| {
            sor::run(dsm, &sp);
        },
    );
}
