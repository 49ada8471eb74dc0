//! Parallel bucket sort of u64 keys — the all-to-all communication
//! workload: every node scatters keys into every bucket, then each
//! bucket owner gathers, sorts, and writes back.
//!
//! Layout: input blocks | counts matrix | output array. All writes are
//! disjoint (offsets from prefix sums), so the program is race-free
//! with barriers only.

use crate::table::{App, Words};
use crate::util::{block_range, compute_flops, u64_at};
use dsm_core::{Dsm, DsmConfig, Engine, GlobalAddr};
use std::ops::Range;

/// Sort workload description.
#[derive(Debug, Clone, Copy)]
pub struct SortParams {
    /// Total keys.
    pub n: usize,
    pub seed: u64,
}

impl SortParams {
    fn input(&self) -> GlobalAddr {
        GlobalAddr(0)
    }

    fn counts(&self, _nodes: usize) -> GlobalAddr {
        // Counts matrix starts right after the input array.
        GlobalAddr(self.n * 8)
    }

    fn output(&self, nodes: usize) -> GlobalAddr {
        GlobalAddr(self.n * 8 + nodes * nodes * 8)
    }

    pub fn heap_bytes(&self, nodes: usize) -> usize {
        2 * self.n * 8 + nodes * nodes * 8
    }

    /// Deterministic pseudo-random key for index `i`.
    pub fn key(&self, i: usize) -> u64 {
        let mut x = self
            .seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x
    }
}

/// Bucket for a key: uniform split of the u64 range.
fn bucket_of(key: u64, buckets: usize) -> usize {
    ((key as u128 * buckets as u128) >> 64) as usize
}

/// Run the sort; node 0 then reads back the whole output array (every
/// other node returns nothing), for the caller to check against
/// [`reference`].
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &SortParams) -> Vec<u64> {
    let nodes = dsm.nodes() as usize;
    let me = dsm.id().0 as usize;
    let (lo, hi) = block_range(p.n, nodes, me);
    let counts_base = p.counts(nodes);
    let out_base = p.output(nodes);

    // Phase 1: write my block, count keys per bucket.
    let my_keys: Vec<u64> = (lo..hi).map(|i| p.key(i)).collect();
    dsm.write_u64s(u64_at(p.input(), lo), &my_keys);
    let mut counts = vec![0u64; nodes];
    for &k in &my_keys {
        counts[bucket_of(k, nodes)] += 1;
    }
    dsm.write_u64s(u64_at(counts_base, me * nodes), &counts);
    compute_flops(dsm, my_keys.len() as u64);
    dsm.barrier(0);

    // Phase 2: read the counts matrix, compute global offsets, scatter
    // my keys directly into their output positions.
    let all_counts = dsm.read_u64s(counts_base, nodes * nodes);
    let bucket_total = |b: usize| -> u64 { (0..nodes).map(|s| all_counts[s * nodes + b]).sum() };
    let bucket_start = |b: usize| -> u64 { (0..b).map(bucket_total).sum() };
    // Offset of my contribution within each bucket.
    let mut cursor: Vec<u64> = (0..nodes)
        .map(|b| bucket_start(b) + (0..me).map(|s| all_counts[s * nodes + b]).sum::<u64>())
        .collect();
    // Group my keys per bucket to write contiguous runs.
    let mut grouped: Vec<Vec<u64>> = vec![Vec::new(); nodes];
    for &k in &my_keys {
        grouped[bucket_of(k, nodes)].push(k);
    }
    for (b, keys) in grouped.iter().enumerate() {
        if !keys.is_empty() {
            dsm.write_u64s(u64_at(out_base, cursor[b] as usize), keys);
            cursor[b] += keys.len() as u64;
        }
    }
    compute_flops(dsm, my_keys.len() as u64);
    dsm.barrier(0);

    // Phase 3: sort my bucket in place.
    let start = bucket_start(me) as usize;
    let len = bucket_total(me) as usize;
    let mut bucket = dsm.read_u64s(u64_at(out_base, start), len);
    bucket.sort_unstable();
    if len > 0 {
        dsm.write_u64s(u64_at(out_base, start), &bucket);
    }
    compute_flops(
        dsm,
        (len.max(1) as u64) * (64 - (len.max(1) as u64).leading_zeros() as u64),
    );
    dsm.barrier(0);

    match me {
        0 => dsm.read_u64s(out_base, p.n),
        _ => Vec::new(),
    }
}

/// Sequential reference: the sorted keys.
pub fn reference(p: &SortParams) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..p.n).map(|i| p.key(i)).collect();
    keys.sort_unstable();
    keys
}

impl App for SortParams {
    fn name(&self) -> &'static str {
        "sort"
    }

    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        let nodes = cfg.nnodes as usize;
        cfg.heap_bytes(self.heap_bytes(nodes))
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        run(d, self)
    }

    fn verdict(&self, results: &[Words]) -> bool {
        results[0] == reference(self)
    }

    /// Its block of the input and its row of the counts; it scatters
    /// keys into every bucket, so all of the output.
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
        let (lo, hi) = block_range(self.n, nodes, rank);
        let counts = u64_at(self.counts(nodes), rank * nodes).0;
        let out = self.output(nodes).0;
        vec![
            u64_at(self.input(), lo).0..u64_at(self.input(), hi).0,
            counts..counts + nodes * 8,
            out..out + self.n * 8,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_key_space_in_order() {
        // All keys in bucket b are < all keys in bucket b+1.
        let p = SortParams { n: 256, seed: 7 };
        let nodes = 4;
        let mut maxima = vec![0u64; nodes];
        let mut minima = vec![u64::MAX; nodes];
        for i in 0..p.n {
            let k = p.key(i);
            let b = bucket_of(k, nodes);
            maxima[b] = maxima[b].max(k);
            minima[b] = minima[b].min(k);
        }
        for b in 1..nodes {
            if minima[b] != u64::MAX && maxima[b - 1] != 0 {
                assert!(maxima[b - 1] <= minima[b]);
            }
        }
    }

    #[test]
    fn reference_is_sorted_permutation() {
        let p = SortParams { n: 256, seed: 7 };
        let r = reference(&p);
        assert!(r.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.len(), p.n);
    }
}
