//! E21 — Zipf-skewed KV board: invalidate vs lazy diffs vs one-sided
//! reads as access skew rises.
//!
//! The KV workload (see `dsm_apps::kv`) draws keys from a Zipf law, so
//! turning the exponent up concentrates reads *and* lock-protected
//! increments onto a few hot keys — and, because many keys share a
//! page, onto a few hot pages. The three protocols pay for that
//! concentration differently: IVY ping-pongs whole hot pages between
//! writers, LRC ships per-interval diffs and tolerates read staleness
//! between acquires, and `rdma` serves read misses with one-sided NIC
//! fetches that never schedule the home CPU. The headline artifact is
//! completion time as a function of skew, plus the message/byte bill
//! that explains it.
//!
//! Every configuration verifies the post-barrier table digest against
//! a local replay of the streams (commutative increments make the
//! final state order-independent), so a protocol cannot win by
//! returning the wrong data.

use super::{checked, ms, msgs, sweep, Scale};
use dsm_apps::kv;
use dsm_core::{DsmConfig, ProtocolKind};

/// The compared trio, per the skew question above.
const PROTOS: [ProtocolKind; 3] = [
    ProtocolKind::IvyFixed,
    ProtocolKind::Lrc,
    ProtocolKind::Rdma,
];

/// Skew sweep: uniform, mild, classic Zipf, heavy.
const SKEWS: [f64; 4] = [0.0, 0.6, 0.99, 1.4];

pub fn e21_zipf(scale: Scale) {
    let nodes: u32 = scale.pick(4, 8);
    let base = kv::KvParams {
        keys: scale.pick(128, 512),
        ops_per_node: scale.pick(60, 400),
        read_pct: 80,
        skew: 0.0,
        stripes: 16,
        seed: 21,
    };
    let ms = (" — completion time vs skew (ms)", ms().1);
    let msgs = (" — protocol messages vs skew", msgs().1);
    let title = "E21: Zipf KV board";
    let labels = PROTOS.map(ProtocolKind::name);
    sweep(title, "skew", &SKEWS, &labels, &[ms, msgs], |skew, c| {
        let cfg = DsmConfig::new(nodes, PROTOS[c])
            .page_size(scale.pick(256, 1024))
            .max_events(400_000_000);
        checked(
            &format!("{title} at skew {skew}"),
            kv::KvParams { skew, ..base },
            cfg,
        )
    });
}
