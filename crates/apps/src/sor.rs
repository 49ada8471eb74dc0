//! Red-black successive over-relaxation — the canonical DSM stencil
//! workload (nearest-neighbor sharing at block boundaries).
//!
//! The grid lives in shared memory row-major at address 0; node k owns
//! a contiguous block of interior rows. Each iteration has a red phase
//! and a black phase separated by barriers: a cell of the active color
//! is relaxed from its four neighbors, which all have the other color,
//! so within a phase the program is race-free at changed-byte
//! granularity (whole rows are written back, but only active-color
//! bytes change).

use crate::util::{block_range, compute_flops, f64_at};
use dsm_core::{Dsm, GlobalAddr};

/// SOR problem description.
#[derive(Debug, Clone, Copy)]
pub struct SorParams {
    /// Grid side (including boundary rows/cols).
    pub n: usize,
    /// Red-black iterations.
    pub iters: usize,
    /// Relaxation factor.
    pub omega: f64,
}

impl SorParams {
    pub fn small() -> Self {
        SorParams {
            n: 32,
            iters: 4,
            omega: 1.25,
        }
    }

    /// Shared bytes needed.
    pub fn heap_bytes(&self) -> usize {
        self.n * self.n * 8
    }

    fn row_addr(&self, r: usize) -> GlobalAddr {
        f64_at(GlobalAddr(0), r * self.n)
    }
}

/// Deterministic initial grid: boundary = smooth ramp, interior zero.
fn initial(n: usize, r: usize, c: usize) -> f64 {
    if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
        (r * 31 + c * 17) as f64 / n as f64
    } else {
        0.0
    }
}

fn relax_row(
    p: &SorParams,
    above: &[f64],
    cur: &mut [f64],
    below: &[f64],
    r: usize,
    color: usize,
) -> u64 {
    let n = p.n;
    let mut flops = 0;
    let mut c = 1 + (r + 1 + color) % 2;
    while c < n - 1 {
        let v = 0.25 * (above[c] + below[c] + cur[c - 1] + cur[c + 1]);
        cur[c] += p.omega * (v - cur[c]);
        flops += 7;
        c += 2;
    }
    flops
}

/// Run SOR on the DSM; returns the checksum of this node's block.
pub fn run(dsm: &Dsm<'_>, p: &SorParams) -> f64 {
    let n = p.n;
    let nodes = dsm.nodes() as usize;
    let me = dsm.id().0 as usize;
    // Interior rows 1..n-1 are distributed; boundary rows stay fixed.
    let (lo, hi) = block_range(n - 2, nodes, me);
    let (lo, hi) = (lo + 1, hi + 1);

    // Node 0 writes the boundary; every node initializes its own rows.
    if me == 0 {
        for r in [0, n - 1] {
            let row: Vec<f64> = (0..n).map(|c| initial(n, r, c)).collect();
            dsm.write_f64s(p.row_addr(r), &row);
        }
    }
    for r in lo..hi {
        let row: Vec<f64> = (0..n).map(|c| initial(n, r, c)).collect();
        dsm.write_f64s(p.row_addr(r), &row);
    }
    // Unique id per barrier episode: required by the crash-aware
    // centralized barrier (release replay is keyed by episode id).
    let mut bar = 0u32;
    dsm.barrier(bar);
    bar += 1;

    // Every color sweep streams rows lo-1..=hi in order (each row plus
    // its neighbors): declare that neighborhood as the read-ahead
    // window so a boundary-row miss can prefetch the rows behind it.
    {
        let _window = dsm.prefetch_window(p.row_addr(lo - 1), (hi - lo + 2) * n * 8);
        for _ in 0..p.iters {
            for color in 0..2 {
                for r in lo..hi {
                    // Fresh rows on purpose: buffers kept per node (`matmul`'s way)
                    // lost at 512 — malloc hands on a cache-hot block (docs/PERF.md).
                    let above = dsm.read_f64s(p.row_addr(r - 1), n);
                    let mut cur = dsm.read_f64s(p.row_addr(r), n);
                    let below = dsm.read_f64s(p.row_addr(r + 1), n);
                    let flops = relax_row(p, &above, &mut cur, &below, r, color);
                    dsm.write_f64s(p.row_addr(r), &cur);
                    compute_flops(dsm, flops);
                }
                dsm.barrier(bar);
                bar += 1;
            }
        }
    }

    let mut sum = 0.0;
    for r in lo..hi {
        sum += dsm.read_f64s(p.row_addr(r), n).iter().sum::<f64>();
    }
    sum
}

/// Sequential reference; returns the full final grid.
pub fn reference(p: &SorParams) -> Vec<f64> {
    let n = p.n;
    let mut grid: Vec<f64> = (0..n * n).map(|i| initial(n, i / n, i % n)).collect();
    for _ in 0..p.iters {
        for color in 0..2 {
            for r in 1..n - 1 {
                let (before, rest) = grid.split_at_mut(r * n);
                let (cur, after) = rest.split_at_mut(n);
                let above = &before[(r - 1) * n..];
                let below = &after[..n];
                relax_row(p, above, cur, below, r, color);
            }
        }
    }
    grid
}

/// Checksum of the reference block a node would own.
pub fn reference_block_sum(p: &SorParams, nodes: usize, node: usize) -> f64 {
    let grid = reference(p);
    let (lo, hi) = block_range(p.n - 2, nodes, node);
    let (lo, hi) = (lo + 1, hi + 1);
    grid[lo * p.n..hi * p.n].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_converges_toward_boundary_values() {
        let p = SorParams {
            n: 16,
            iters: 100,
            omega: 1.25,
        };
        let g = reference(&p);
        // After many sweeps the interior is no longer zero.
        let g = &g;
        let interior_sum: f64 = (1..15)
            .flat_map(|r| (1..15).map(move |c| g[r * 16 + c]))
            .sum();
        assert!(interior_sum > 1.0);
    }

    #[test]
    fn reference_is_deterministic() {
        let p = SorParams::small();
        assert_eq!(reference(&p), reference(&p));
    }
}
