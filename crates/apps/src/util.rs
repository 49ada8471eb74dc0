//! Shared helpers for the application kernels.

use dsm_core::{Dsm, Dur, Engine, GlobalAddr};

/// Modeled cost of one floating-point operation — a ~2 MFLOPS
/// early-90s workstation, matching the era of the 10 Mbit/s network in
/// [`dsm_core::CostModel::lan_1992`]. The compute/communication ratio
/// this sets is what the scaling experiments' shapes depend on.
/// Kernels charge `flops * FLOP_NS` per block of local computation.
pub const FLOP_NS: u64 = 500;

/// Charge `flops` of modeled local computation.
pub fn compute_flops(dsm: &Dsm<'_, impl Engine>, flops: u64) {
    dsm.compute(Dur::nanos(flops * FLOP_NS));
}

/// Address of element `i` in an f64 array based at `base`.
#[inline]
pub fn f64_at(base: GlobalAddr, i: usize) -> GlobalAddr {
    base.offset(i * 8)
}

/// Address of element `i` in a u64 array based at `base`.
#[inline]
pub fn u64_at(base: GlobalAddr, i: usize) -> GlobalAddr {
    base.offset(i * 8)
}

/// Split `n` items across `parts` as evenly as possible; returns the
/// half-open range owned by `part`.
pub fn block_range(n: usize, parts: usize, part: usize) -> (usize, usize) {
    let per = n / parts;
    let extra = n % parts;
    let lo = part * per + part.min(extra);
    let hi = lo + per + usize::from(part < extra);
    (lo, hi)
}

/// The sum of each of `parts` blocks of `grid`, a grid of rows `len`
/// long: block `i` is rows `block_range(rows, parts, i)`, counted from
/// row `first`.
pub fn block_sums(grid: &[f64], rows: usize, len: usize, first: usize, parts: usize) -> Vec<f64> {
    let sum = |(lo, hi)| grid[(first + lo) * len..(first + hi) * len].iter().sum();
    (0..parts)
        .map(|i| sum(block_range(rows, parts, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut total = 0;
                let mut prev_hi = 0;
                for p in 0..parts {
                    let (lo, hi) = block_range(n, parts, p);
                    assert_eq!(lo, prev_hi);
                    prev_hi = hi;
                    total += hi - lo;
                }
                assert_eq!(total, n);
                assert_eq!(prev_hi, n);
            }
        }
    }

    #[test]
    fn addressing() {
        assert_eq!(f64_at(GlobalAddr(0), 3), GlobalAddr(24));
        assert_eq!(u64_at(GlobalAddr(16), 2), GlobalAddr(32));
    }
}
