//! Jacobi iteration with double buffering — the bulk-synchronous
//! stencil: reads come from buffer A, writes go to buffer B, and a
//! barrier swaps the roles. Unlike SOR there is no in-place update, so
//! every iteration rewrites the full owned block (twice the write
//! traffic, simpler sharing).

use crate::table::{sums_match, App, Words};
use crate::util::{block_range, block_sums, compute_flops, f64_at};
use dsm_core::{Dsm, DsmConfig, Engine, GlobalAddr};
use std::ops::Range;

#[derive(Debug, Clone, Copy)]
pub struct JacobiParams {
    /// Grid side (including fixed boundary).
    pub n: usize,
    pub iters: usize,
}

impl JacobiParams {
    pub fn heap_bytes(&self) -> usize {
        2 * self.n * self.n * 8
    }

    fn row_addr(&self, buf: usize, r: usize) -> GlobalAddr {
        f64_at(GlobalAddr(buf * self.n * self.n * 8), r * self.n)
    }
}

fn initial(n: usize, r: usize, c: usize) -> f64 {
    if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
        ((r + 2 * c) % 9) as f64
    } else {
        0.0
    }
}

/// Run; returns the checksum of this node's block of the final buffer.
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &JacobiParams) -> f64 {
    let n = p.n;
    let nodes = dsm.nodes() as usize;
    let me = dsm.id().0 as usize;
    let (lo, hi) = block_range(n - 2, nodes, me);
    let (lo, hi) = (lo + 1, hi + 1);

    // Initialize both buffers (boundaries must exist in each).
    if me == 0 {
        for buf in 0..2 {
            for r in [0, n - 1] {
                let row: Vec<f64> = (0..n).map(|c| initial(n, r, c)).collect();
                dsm.write_f64s(p.row_addr(buf, r), &row);
            }
        }
    }
    for buf in 0..2 {
        for r in lo..hi {
            let row: Vec<f64> = (0..n).map(|c| initial(n, r, c)).collect();
            dsm.write_f64s(p.row_addr(buf, r), &row);
        }
    }
    dsm.barrier(0);

    let mut src = 0;
    for _ in 0..p.iters {
        let dst = 1 - src;
        for r in lo..hi {
            let above = dsm.read_f64s(p.row_addr(src, r - 1), n);
            let cur = dsm.read_f64s(p.row_addr(src, r), n);
            let below = dsm.read_f64s(p.row_addr(src, r + 1), n);
            let mut out = cur.clone();
            for c in 1..n - 1 {
                out[c] = 0.25 * (above[c] + below[c] + cur[c - 1] + cur[c + 1]);
            }
            compute_flops(dsm, 4 * (n - 2) as u64);
            dsm.write_f64s(p.row_addr(dst, r), &out);
        }
        dsm.barrier(0);
        src = dst;
    }

    let mut sum = 0.0;
    for r in lo..hi {
        sum += dsm.read_f64s(p.row_addr(src, r), n).iter().sum::<f64>();
    }
    sum
}

/// Sequential reference: final grid after `iters` sweeps.
pub fn reference(p: &JacobiParams) -> Vec<f64> {
    let n = p.n;
    let mut a: Vec<f64> = (0..n * n).map(|i| initial(n, i / n, i % n)).collect();
    let mut b = a.clone();
    for _ in 0..p.iters {
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                b[r * n + c] = 0.25
                    * (a[(r - 1) * n + c]
                        + a[(r + 1) * n + c]
                        + a[r * n + c - 1]
                        + a[r * n + c + 1]);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Checksum of the reference block each of `nodes` nodes would own.
pub fn reference_block_sums(p: &JacobiParams, nodes: usize) -> Vec<f64> {
    block_sums(&reference(p), p.n - 2, p.n, 1, nodes)
}

impl App for JacobiParams {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        cfg.heap_bytes(self.heap_bytes())
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        vec![run(d, self).to_bits()]
    }

    fn verdict(&self, results: &[Words]) -> bool {
        let want = reference_block_sums(self, results.len());
        sums_match(results, &want, |_| 1e-9)
    }

    /// Its interior rows of both buffers, and node 0 the boundary rows
    /// of both as well.
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
        let (lo, hi) = block_range(self.n - 2, nodes, rank);
        let mut bytes = Vec::new();
        for buf in 0..2 {
            let rows = |lo, hi| self.row_addr(buf, lo).0..self.row_addr(buf, hi).0;
            bytes.push(rows(lo + 1, hi + 1));
            if rank == 0 {
                bytes.extend([rows(0, 1), rows(self.n - 1, self.n)]);
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_smooths_interior() {
        let p = JacobiParams { n: 12, iters: 50 };
        let g = reference(&p);
        let center = g[6 * 12 + 6];
        assert!(center > 0.0, "heat should diffuse inward, got {center}");
    }
}
