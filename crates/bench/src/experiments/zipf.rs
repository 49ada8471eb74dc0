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

use super::Scale;
use crate::table::{print_table, Series};
use dsm_apps::kv;
use dsm_core::{Dsm, DsmConfig, ProtocolKind};

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
    let xs: Vec<String> = SKEWS.iter().map(|s| format!("{s}")).collect();

    let mut time_series: Vec<Series> = PROTOS.iter().map(|k| Series::new(k.name())).collect();
    let mut msg_series: Vec<Series> = PROTOS.iter().map(|k| Series::new(k.name())).collect();
    for &skew in &SKEWS {
        let p = kv::KvParams { skew, ..base };
        let want = kv::reference_digest(&p, nodes as usize);
        for (pi, &proto) in PROTOS.iter().enumerate() {
            let cfg = DsmConfig::new(nodes, proto)
                .heap_bytes(p.heap_bytes())
                .page_size(scale.pick(256, 1024))
                .max_events(400_000_000);
            let res = dsm_core::run_dsm(&cfg, move |d: &Dsm<'_>| kv::run(d, &p));
            assert!(
                res.results.iter().all(|&d| d == want),
                "E21 digest mismatch under {} at skew {skew}",
                proto.name()
            );
            time_series[pi].push(res.end_time.as_millis_f64());
            msg_series[pi].push(res.stats.total_msgs() as f64);
        }
    }
    print_table(
        "E21: Zipf KV board — completion time vs skew (ms)",
        "skew",
        &xs,
        &time_series,
    );
    print_table(
        "E21: Zipf KV board — protocol messages vs skew",
        "skew",
        &xs,
        &msg_series,
    );
}
