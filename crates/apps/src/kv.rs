//! Sharded key–value board with Zipf-distributed access — the
//! skew-bound workload. A flat table of u64 counters is guarded by a
//! modest set of striped locks; every node runs a fixed stream of
//! operations whose keys follow a Zipf law, so a handful of hot keys
//! (and therefore hot pages and hot locks) absorb most of the traffic.
//!
//! Writes are commutative increments, so the final table state is
//! independent of interleaving: it is a pure function of the per-node
//! operation streams, which are themselves a pure function of the
//! parameters. That makes the workload verifiable under any protocol
//! and any real-time execution order — [`reference_digest`] replays
//! the streams locally and must equal what every node reads back
//! after the closing barrier.
//!
//! The interesting comparison is invalidate (IVY) vs lazy diffs (LRC)
//! vs one-sided reads (`rdma`) as the skew exponent rises: skew
//! concentrates both true sharing (hot keys) and false sharing (cold
//! keys packed many-to-a-page), and protocols pay for it in different
//! coins.

use crate::table::{App, Words};
use crate::util::u64_at;
use dsm_core::{Dsm, DsmConfig, Engine, GlobalAddr};
use dsm_sync::LockId;
use std::ops::Range;

/// Zipf KV workload description.
#[derive(Debug, Clone, Copy)]
pub struct KvParams {
    /// Number of u64 keys in the table.
    pub keys: usize,
    /// Operations per node.
    pub ops_per_node: usize,
    /// Out of 100: how many operations are reads.
    pub read_pct: u32,
    /// Zipf exponent `s` (0 = uniform; 1+ = heavily skewed).
    pub skew: f64,
    /// Lock stripes (key `k` is guarded by lock `k % stripes`).
    pub stripes: usize,
    /// Stream seed; node `i` uses `seed + i`.
    pub seed: u64,
}

const TABLE: GlobalAddr = GlobalAddr(0);

impl KvParams {
    pub fn heap_bytes(&self) -> usize {
        self.keys * 8
    }
}

/// One drawn operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    pub key: usize,
    /// `None` = read; `Some(delta)` = increment by `delta`.
    pub delta: Option<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The Zipf cumulative distribution over `keys` ranks: key `k` has
/// weight `1/(k+1)^s`.
pub fn zipf_cdf(keys: usize, skew: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(keys);
    let mut acc = 0.0;
    for k in 0..keys {
        acc += ((k + 1) as f64).powf(-skew);
        cdf.push(acc);
    }
    let total = *cdf.last().expect("at least one key");
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Node `node`'s fixed operation stream. Exposed (rather than drawn
/// inline) so [`reference_digest`] replays exactly what the nodes run.
pub fn stream(p: &KvParams, node: usize) -> Vec<KvOp> {
    let cdf = zipf_cdf(p.keys, p.skew);
    let mut rng = p
        .seed
        .wrapping_add(node as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        | 1;
    (0..p.ops_per_node)
        .map(|_| {
            // 53 uniform bits → [0, 1); binary-search the CDF.
            let u = (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            let key = cdf.partition_point(|&c| c < u).min(p.keys - 1);
            let delta = if xorshift(&mut rng) % 100 < p.read_pct as u64 {
                None
            } else {
                Some(1 + xorshift(&mut rng) % 7)
            };
            KvOp { key, delta }
        })
        .collect()
}

/// Order-independent digest of a table state.
fn digest(vals: impl Iterator<Item = u64>) -> u64 {
    vals.enumerate().fold(0u64, |d, (k, v)| {
        d.wrapping_add(v.rotate_left((k % 63) as u32))
    })
}

/// The digest every node must read back: replay all streams locally.
pub fn reference_digest(p: &KvParams, nnodes: usize) -> u64 {
    let mut table = vec![0u64; p.keys];
    for node in 0..nnodes {
        for op in stream(p, node) {
            if let Some(delta) = op.delta {
                table[op.key] = table[op.key].wrapping_add(delta);
            }
        }
    }
    digest(table.into_iter())
}

/// Run the workload; returns the post-barrier table digest (equal on
/// every node, and equal to [`reference_digest`]).
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &KvParams) -> u64 {
    let me = dsm.id().0 as usize;
    dsm.barrier(0);
    let mut _read_sink = 0u64;
    for op in stream(p, me) {
        let lock: LockId = (op.key % p.stripes) as LockId;
        let addr = u64_at(TABLE, op.key);
        dsm.with_lock(lock, |d| match op.delta {
            None => _read_sink ^= d.read_u64(addr),
            Some(delta) => {
                let v = d.read_u64(addr);
                d.write_u64(addr, v.wrapping_add(delta));
            }
        });
    }
    dsm.barrier(1);
    digest((0..p.keys).map(|k| dsm.read_u64(u64_at(TABLE, k))))
}

impl App for KvParams {
    fn name(&self) -> &'static str {
        "kv"
    }

    /// Every key's 8 bytes bound to the stripe lock that guards it, so
    /// `entry` and `obj` keep the table coherent.
    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        let bind = |cfg: DsmConfig, k| cfg.bind((k % self.stripes) as LockId, u64_at(TABLE, k), 8);
        (0..self.keys).fold(cfg.heap_bytes(self.heap_bytes()), bind)
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        vec![run(d, self)]
    }

    fn verdict(&self, results: &[Words]) -> bool {
        let want = [reference_digest(self, results.len())];
        results.iter().all(|w| w[..] == want)
    }

    /// Every key its stream increments: keys of different stripes are
    /// under different locks.
    fn writes(&self, _: usize, rank: usize) -> Vec<Range<usize>> {
        let key = |k| u64_at(TABLE, k).0..u64_at(TABLE, k + 1).0;
        stream(self, rank)
            .into_iter()
            .filter(|op| op.delta.is_some())
            .map(|op| key(op.key))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: KvParams = KvParams {
        keys: 64,
        ops_per_node: 40,
        read_pct: 70,
        skew: 0.9,
        stripes: 8,
        seed: 11,
    };

    #[test]
    fn streams_are_fixed_and_skewed() {
        assert_eq!(stream(&P, 0), stream(&P, 0));
        assert_ne!(stream(&P, 0), stream(&P, 1));
        // Skew concentrates mass on low ranks: the head key must be
        // drawn more often than a fair share.
        let hot = stream(&P, 0).iter().filter(|o| o.key == 0).count();
        assert!(hot * P.keys > P.ops_per_node, "no skew: {hot} hits");
        let uniform = zipf_cdf(4, 0.0);
        assert!((uniform[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reference_matches_a_dsm_run() {
        // Under both lock algorithms: with the centralized one, stripe
        // locks homed at a node that also takes them are how a server's
        // own release once went undeposited (lost updates under lrc).
        for lock_kind in [dsm_core::LockKind::Queue, dsm_core::LockKind::Central] {
            let cfg = dsm_core::DsmConfig::new(3, dsm_core::ProtocolKind::Lrc)
                .heap_bytes(P.heap_bytes())
                .page_size(256)
                .lock_kind(lock_kind);
            let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| run(d, &P));
            let want = reference_digest(&P, 3);
            assert!(res.results.iter().all(|&d| d == want), "{lock_kind:?}");
        }
    }
}

#[cfg(test)]
mod regression {
    use super::*;

    /// At 8 nodes with many hot keys packed into one page, diffs for
    /// the same key arrive from concurrent fault completions in large
    /// batches. Ordering them used to use `sort_by` over the causal
    /// partial order with an id tiebreak — not a total order, so the
    /// sort could panic or silently apply an older same-key diff
    /// after a newer one, losing increments. Both GC modes hit it.
    #[test]
    fn concurrent_diffs_apply_in_causal_order() {
        let p = KvParams {
            keys: 512,
            ops_per_node: 400,
            read_pct: 80,
            skew: 0.99,
            stripes: 16,
            seed: 21,
        };
        let want = reference_digest(&p, 8);
        for gc in [true, false] {
            let cfg = dsm_core::DsmConfig::new(8, dsm_core::ProtocolKind::Lrc)
                .heap_bytes(p.heap_bytes())
                .page_size(1024)
                .lrc_gc(gc)
                .max_events(400_000_000);
            let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| run(d, &p));
            assert!(
                res.results.iter().all(|&d| d == want),
                "lost update under lrc (gc={gc})"
            );
        }
    }
}
