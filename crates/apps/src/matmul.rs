//! Blocked matrix multiply C = A·B — the embarrassingly parallel DSM
//! workload: A and C are block-row distributed, B is read-shared by
//! everyone (replication-friendly protocols shine; migration thrashes).

use crate::util::{block_range, compute_flops, f64_at};
use dsm_core::{Dsm, GlobalAddr};

/// Matmul problem description. Matrices are `n × n`, row-major, laid
/// out A | B | C from address 0.
#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    pub n: usize,
}

impl MatmulParams {
    pub fn small() -> Self {
        MatmulParams { n: 24 }
    }

    pub fn heap_bytes(&self) -> usize {
        3 * self.n * self.n * 8
    }

    fn a_row(&self, r: usize) -> GlobalAddr {
        f64_at(GlobalAddr(0), r * self.n)
    }
    fn b_row(&self, r: usize) -> GlobalAddr {
        f64_at(GlobalAddr(self.n * self.n * 8), r * self.n)
    }
    fn c_row(&self, r: usize) -> GlobalAddr {
        f64_at(GlobalAddr(2 * self.n * self.n * 8), r * self.n)
    }
}

fn a_init(_n: usize, r: usize, c: usize) -> f64 {
    ((r * 7 + c * 3) % 11) as f64 - 5.0
}

fn b_init(n: usize, r: usize, c: usize) -> f64 {
    ((r * 5 + c * 13 + n) % 7) as f64 - 3.0
}

/// Run on the DSM; returns the checksum of this node's C block.
pub fn run(dsm: &Dsm<'_>, p: &MatmulParams) -> f64 {
    let n = p.n;
    let nodes = dsm.nodes() as usize;
    let me = dsm.id().0 as usize;
    let (lo, hi) = block_range(n, nodes, me);

    // Each node initializes its block of A; B is initialized by its
    // row's owner too (spreads the initial faults).
    for r in lo..hi {
        let arow: Vec<f64> = (0..n).map(|c| a_init(n, r, c)).collect();
        dsm.write_f64s(p.a_row(r), &arow);
        let brow: Vec<f64> = (0..n).map(|c| b_init(n, r, c)).collect();
        dsm.write_f64s(p.b_row(r), &brow);
    }
    // Unique id per barrier episode: required by the crash-aware
    // centralized barrier (release replay is keyed by episode id).
    dsm.barrier(0);

    // C[r] = sum_k A[r][k] * B[k]; read B rows on demand (they cache).
    // B is streamed in k-order, so declare it as the read-ahead window:
    // a miss on one B row lets a batching runtime prefetch the next.
    {
        let _window = dsm.prefetch_window(GlobalAddr(n * n * 8), n * n * 8);
        // One B-row buffer: a zeroed `Vec` per read was a seventh of the loop.
        let mut brow = vec![0.0f64; n];
        for r in lo..hi {
            let arow = dsm.read_f64s(p.a_row(r), n);
            let mut crow = vec![0.0f64; n];
            for (k, &aval) in arow.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                dsm.read_f64s_into(p.b_row(k), &mut brow);
                for (cv, bv) in crow.iter_mut().zip(&brow) {
                    *cv += aval * bv;
                }
            }
            compute_flops(dsm, (2 * n * n) as u64);
            dsm.write_f64s(p.c_row(r), &crow);
        }
    }
    dsm.barrier(1);

    let mut sum = 0.0;
    for r in lo..hi {
        sum += dsm.read_f64s(p.c_row(r), n).iter().sum::<f64>();
    }
    sum
}

/// Sequential reference: the full C matrix.
pub fn reference(p: &MatmulParams) -> Vec<f64> {
    let n = p.n;
    let mut c = vec![0.0f64; n * n];
    for r in 0..n {
        for k in 0..n {
            let a = a_init(n, r, k);
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                c[r * n + j] += a * b_init(n, k, j);
            }
        }
    }
    c
}

/// Checksum of the reference C block a node would own.
pub fn reference_block_sum(p: &MatmulParams, nodes: usize, node: usize) -> f64 {
    let c = reference(p);
    let (lo, hi) = block_range(p.n, nodes, node);
    c[lo * p.n..hi * p.n].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_naive() {
        let p = MatmulParams { n: 8 };
        let c = reference(&p);
        // Spot-check one element.
        let mut want = 0.0;
        for k in 0..8 {
            want += a_init(8, 3, k) * b_init(8, k, 5);
        }
        assert_eq!(c[3 * 8 + 5], want);
    }

    #[test]
    fn block_sums_partition_total() {
        let p = MatmulParams::small();
        let total: f64 = reference(&p).iter().sum();
        let parts: f64 = (0..3).map(|i| reference_block_sum(&p, 3, i)).sum();
        assert!((total - parts).abs() < 1e-9);
    }
}
