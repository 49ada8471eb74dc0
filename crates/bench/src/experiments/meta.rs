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
//!   retained diffs, and unapplied write notices any node holds (the
//!   largest of its `Resident` trace records). Interval GC retires the epoch
//!   at every barrier, bounding this to one epoch; without GC it grows
//!   with iteration count.
//!
//! `erc` rides along as the metadata-free reference: eager flushing
//! carries no clocks at all, at the price E6 measures.

use super::{checked_traced, sweep, Reads, Scale};
use dsm_apps::{sor, Words};
use dsm_core::trace::{Kind, Rec};
use dsm_core::{DsmConfig, Placement, ProtocolKind, RunResult};
use std::cell::Cell;
use std::rc::Rc;

/// A run and its peak resident metadata bytes, over all nodes.
type Traced = (RunResult<Words>, u64);

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
    let bar_bytes: Reads<Traced> = (" — barrier bytes per episode per node", &|_, (r, _)| {
        let bar = r.stats.kind("BarArrive").bytes + r.stats.kind("BarRelease").bytes;
        bar as f64 / barriers as f64 / r.results.len() as f64
    });
    let resident: Reads<Traced> = (" — peak resident metadata bytes (max node)", &|_, r| {
        r.1 as f64
    });
    let ms: Reads<Traced> = (" — SOR completion (ms)", &|_, (r, _)| {
        r.end_time.as_millis_f64()
    });
    let labels = CONFIGS.map(|c| c.0);
    let title = "E18: LRC metadata";
    let metrics = [bar_bytes, resident, ms];
    sweep(
        title,
        "nodes",
        &node_counts(scale),
        &labels,
        &metrics,
        |n, c| {
            let (_, proto, gc) = CONFIGS[c];
            let cfg = DsmConfig::new(n, proto)
                .placement(Placement::Block)
                .lrc_gc(gc)
                .max_events(400_000_000);
            let peak = Rc::new(Cell::new(0));
            let seen = Rc::clone(&peak);
            let fold = move |r: &Rec| {
                if r.kind == Kind::Resident {
                    seen.set(seen.get().max(r.bytes));
                }
            };
            (checked_traced(title, p, cfg, fold).0, peak.get())
        },
    );
}
