//! E18 — LRC causal-metadata footprint vs node count.
//!
//! Lazy release consistency pays for its laziness in metadata: vector
//! clocks and interval records. Encoded naively, every barrier ships
//! each node's full `N × u32` clock plus raw interval lists, and the
//! interval log grows without bound — an O(N²)-bytes-per-barrier tax
//! that was a visible part of LRC's N=128 collapse in E2/E3.
//!
//! This experiment measures both halves of the fix on red-black SOR:
//!
//! * **barrier metadata** — bytes of `BarArrive` + `BarRelease`
//!   traffic per barrier episode, per node. Delta-encoded clocks and
//!   compacted per-page write notices should hold this ~flat in N
//!   (O(N) total per barrier) where the raw encoding grows linearly
//!   per node (O(N²) total);
//! * **resident metadata** — the peak bytes of interval records,
//!   retained diffs, and unapplied write notices any node holds
//!   (`lrc_peak_resident_bytes` gauge). Interval GC retires the epoch
//!   at every barrier, bounding this to one epoch; without GC it grows
//!   with iteration count.
//!
//! `erc` rides along as the metadata-free reference: eager flushing
//! carries no clocks at all, at the price E6 measures.

use super::Scale;
use crate::table::{print_table, xs_of, Series};
use dsm_apps::sor;
use dsm_core::{Dsm, DsmConfig, Placement, ProtocolKind};

fn node_counts(scale: Scale) -> Vec<u32> {
    scale.pick(vec![2, 4, 8], vec![2, 4, 8, 16, 32, 64, 128])
}

/// The three configurations compared.
const CONFIGS: [(&str, ProtocolKind, bool); 3] = [
    ("lrc-gc", ProtocolKind::Lrc, true),
    ("lrc-nogc", ProtocolKind::Lrc, false),
    ("erc", ProtocolKind::Erc, true),
];

pub fn e18_lrc_meta(scale: Scale) {
    let p = sor::SorParams {
        n: scale.pick(48, 512),
        iters: scale.pick(2, 3),
        omega: 1.25,
    };
    // Barrier episodes: two color sweeps per iteration, plus the final
    // sum's quiescence barrier is not part of sor::run — count the
    // sweeps only; the absolute number only normalizes the table.
    let barriers = (2 * p.iters) as u64;
    let ns = node_counts(scale);
    let mut bar_bytes: Vec<Series> = CONFIGS.iter().map(|c| Series::new(c.0)).collect();
    let mut resident: Vec<Series> = CONFIGS.iter().map(|c| Series::new(c.0)).collect();
    let mut times: Vec<Series> = CONFIGS.iter().map(|c| Series::new(c.0)).collect();
    for &n in &ns {
        for (ci, &(_, proto, gc)) in CONFIGS.iter().enumerate() {
            let cfg = DsmConfig::new(n, proto)
                .heap_bytes(p.heap_bytes())
                .page_size(4096)
                .placement(Placement::Block)
                .lrc_gc(gc)
                .max_events(400_000_000);
            let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
                sor::run(dsm, &p);
            });
            let bar = res.stats.kind("BarArrive").bytes + res.stats.kind("BarRelease").bytes;
            bar_bytes[ci].push(bar as f64 / barriers as f64 / n as f64);
            let peak = res
                .gauges
                .iter()
                .flat_map(|g| g.iter())
                .filter(|(k, _)| *k == "lrc_peak_resident_bytes")
                .map(|&(_, v)| v)
                .max()
                .unwrap_or(0);
            resident[ci].push(peak as f64);
            times[ci].push(res.end_time.as_millis_f64());
        }
    }
    print_table(
        "E18: LRC metadata — barrier bytes per episode per node",
        "nodes",
        &xs_of(&ns),
        &bar_bytes,
    );
    print_table(
        "E18: LRC metadata — peak resident metadata bytes (max node)",
        "nodes",
        &xs_of(&ns),
        &resident,
    );
    print_table(
        "E18: LRC metadata — SOR completion (ms)",
        "nodes",
        &xs_of(&ns),
        &times,
    );
}
