//! Gaussian elimination (no pivoting) on an augmented matrix — the
//! broadcast-heavy DSM workload: at step k the owner of row k updates
//! it, then every node reads it to eliminate its own rows. Update-based
//! protocols push the pivot row once; invalidation-based ones make
//! every node re-fetch it.
//!
//! Rows are distributed cyclically so the elimination load stays
//! balanced as the active submatrix shrinks (the classic distribution
//! for this kernel).

use crate::table::{App, Words};
use crate::util::compute_flops;
use dsm_core::{Dsm, DsmConfig, Engine, GlobalAddr};
use std::ops::Range;

/// Problem: solve `n` equations; the matrix is `n × (n+1)` (augmented),
/// row-major from address 0.
#[derive(Debug, Clone, Copy)]
pub struct GaussParams {
    pub n: usize,
    /// Byte alignment of each row's start. Rows are cyclically
    /// distributed, so without padding two nodes' rows share pages and
    /// single-writer protocols ping-pong them; real DSM codes padded
    /// rows to page multiples. 8 = dense (no padding).
    pub row_align: usize,
}

impl GaussParams {
    pub fn width(&self) -> usize {
        self.n + 1
    }

    /// Byte stride between consecutive rows.
    pub fn row_stride(&self) -> usize {
        (self.width() * 8).next_multiple_of(self.row_align)
    }

    pub fn heap_bytes(&self) -> usize {
        self.n * self.row_stride()
    }

    fn row_addr(&self, r: usize) -> GlobalAddr {
        GlobalAddr(r * self.row_stride())
    }
}

/// Diagonally dominant system with a deterministic right-hand side, so
/// elimination without pivoting is stable.
fn init(n: usize, r: usize, c: usize) -> f64 {
    let w = n + 1;
    if c == w - 1 {
        (r % 5 + 1) as f64
    } else if r == c {
        (n + 4) as f64
    } else {
        (((r * 3 + c * 7) % 5) as f64 - 2.0) / 2.0
    }
}

fn owner(r: usize, nodes: usize) -> usize {
    r % nodes
}

/// Run elimination + back substitution; every node returns the full
/// solution vector (checked against the reference).
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &GaussParams) -> Vec<f64> {
    let n = p.n;
    let w = p.width();
    let nodes = dsm.nodes() as usize;
    let me = dsm.id().0 as usize;

    for r in (0..n).filter(|r| owner(*r, nodes) == me) {
        let row: Vec<f64> = (0..w).map(|c| init(n, r, c)).collect();
        dsm.write_f64s(p.row_addr(r), &row);
    }
    dsm.barrier(0);

    // Forward elimination. Each node keeps its own rows locally
    // mutable; the pivot row is read from shared memory each step.
    for k in 0..n {
        if owner(k, nodes) == me {
            // Normalize row k.
            let mut row = dsm.read_f64s(p.row_addr(k), w);
            let d = row[k];
            for v in row[k..].iter_mut() {
                *v /= d;
            }
            compute_flops(dsm, (w - k) as u64);
            dsm.write_f64s(p.row_addr(k), &row);
        }
        // One barrier per step: everyone waits for the normalized
        // pivot; the next normalize only touches its owner's own
        // (already eliminated) row, so no second barrier is needed.
        dsm.barrier(0);
        let pivot = dsm.read_f64s(p.row_addr(k), w);
        for r in (k + 1..n).filter(|r| owner(*r, nodes) == me) {
            let mut row = dsm.read_f64s(p.row_addr(r), w);
            let f = row[k];
            if f != 0.0 {
                for c in k..w {
                    row[c] -= f * pivot[c];
                }
                compute_flops(dsm, 2 * (w - k) as u64);
                dsm.write_f64s(p.row_addr(r), &row);
            }
        }
    }
    dsm.barrier(0);

    // Back substitution, replicated on every node from the (now upper
    // triangular, unit diagonal) shared matrix.
    let mut x = vec![0.0f64; n];
    for k in (0..n).rev() {
        let row = dsm.read_f64s(p.row_addr(k), w);
        let mut v = row[w - 1];
        for (j, xv) in x.iter().enumerate().skip(k + 1) {
            v -= row[j] * xv;
        }
        x[k] = v;
    }
    compute_flops(dsm, (n * n) as u64);
    x
}

/// Sequential reference solution.
pub fn reference(p: &GaussParams) -> Vec<f64> {
    let n = p.n;
    let w = p.width();
    let mut m: Vec<f64> = (0..n * w).map(|i| init(n, i / w, i % w)).collect();
    for k in 0..n {
        let d = m[k * w + k];
        for c in k..w {
            m[k * w + c] /= d;
        }
        for r in k + 1..n {
            let f = m[r * w + k];
            if f != 0.0 {
                for c in k..w {
                    m[r * w + c] -= f * m[k * w + c];
                }
            }
        }
    }
    let mut x = vec![0.0f64; n];
    for k in (0..n).rev() {
        let mut v = m[k * w + w - 1];
        for (j, xv) in x.iter().enumerate().skip(k + 1) {
            v -= m[k * w + j] * xv;
        }
        x[k] = v;
    }
    x
}

impl App for GaussParams {
    fn name(&self) -> &'static str {
        "gauss"
    }

    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        cfg.heap_bytes(self.heap_bytes())
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        run(d, self).into_iter().map(f64::to_bits).collect()
    }

    /// Every rank's whole solution vector.
    fn verdict(&self, results: &[Words]) -> bool {
        let want = reference(self);
        results.iter().all(|x| {
            x.len() == want.len()
                && x.iter()
                    .zip(&want)
                    .all(|(&got, &w)| (f64::from_bits(got) - w).abs() < 1e-9)
        })
    }

    /// The rows it owns.
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
        (0..self.n)
            .filter(|&r| owner(r, nodes) == rank)
            .map(|r| self.row_addr(r).0..self.row_addr(r).0 + self.width() * 8)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_solves_the_system() {
        let p = GaussParams {
            n: 12,
            row_align: 8,
        };
        let x = reference(&p);
        // Residual check against the original system.
        for r in 0..p.n {
            let mut v = 0.0;
            for (c, xv) in x.iter().enumerate() {
                v += init(p.n, r, c) * xv;
            }
            let b = init(p.n, r, p.n);
            assert!((v - b).abs() < 1e-8, "row {r}: {v} vs {b}");
        }
    }
}
