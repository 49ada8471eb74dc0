//! Parallel FFT by 2-D decomposition — the all-to-all transpose
//! workload (the communication pattern of the era's 3-D FFT DSM
//! benchmarks, e.g. TreadMarks').
//!
//! The N = r·c complex input is viewed as an r×c matrix, block-row
//! distributed. Each node FFTs its rows locally, applies twiddle
//! factors, then the matrix is transposed through shared memory (the
//! all-to-all), and the new rows are FFT'd again. The result is the DFT
//! in transposed-decimated order; the reference runs the identical
//! algorithm sequentially, so results compare bitwise.

use crate::table::{sums_match, App, Words};
use crate::util::{block_range, block_sums, compute_flops, f64_at};
use dsm_core::{Dsm, DsmConfig, Engine, GlobalAddr};
use std::f64::consts::PI;
use std::ops::Range;

/// FFT problem description: `n = rows * cols` complex points.
#[derive(Debug, Clone, Copy)]
pub struct FftParams {
    pub rows: usize,
    pub cols: usize,
}

impl FftParams {
    pub fn n(&self) -> usize {
        self.rows * self.cols
    }

    /// Two buffers (A and B) of n complex values each.
    pub fn heap_bytes(&self) -> usize {
        2 * self.n() * 16
    }

    fn a_elem(&self, r: usize, c: usize) -> GlobalAddr {
        f64_at(GlobalAddr(0), (r * self.cols + c) * 2)
    }

    fn b_elem(&self, r: usize, c: usize) -> GlobalAddr {
        // B is the transposed matrix: cols × rows.
        f64_at(GlobalAddr(self.n() * 16), (r * self.rows + c) * 2)
    }
}

/// Deterministic input signal.
fn input(n: usize, i: usize) -> (f64, f64) {
    let x = i as f64 / n as f64;
    (
        (3.0 * PI * x).sin() + 0.5 * (11.0 * PI * x).cos(),
        0.25 * (7.0 * PI * x).sin(),
    )
}

/// In-place iterative radix-2 FFT over interleaved (re, im) pairs.
/// `len` must be a power of two.
fn fft_inplace(buf: &mut [f64]) {
    let len = buf.len() / 2;
    assert!(len.is_power_of_two(), "FFT length must be a power of two");
    // Bit reversal.
    let bits = len.trailing_zeros();
    for i in 0..len {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            buf.swap(2 * i, 2 * j);
            buf.swap(2 * i + 1, 2 * j + 1);
        }
    }
    // Butterflies.
    let mut size = 2;
    while size <= len {
        let half = size / 2;
        let step = -2.0 * PI / size as f64;
        for start in (0..len).step_by(size) {
            for k in 0..half {
                let w = step * k as f64;
                let (wr, wi) = (w.cos(), w.sin());
                let (er, ei) = (buf[2 * (start + k)], buf[2 * (start + k) + 1]);
                let (or_, oi) = (buf[2 * (start + k + half)], buf[2 * (start + k + half) + 1]);
                let (tr, ti) = (or_ * wr - oi * wi, or_ * wi + oi * wr);
                buf[2 * (start + k)] = er + tr;
                buf[2 * (start + k) + 1] = ei + ti;
                buf[2 * (start + k + half)] = er - tr;
                buf[2 * (start + k + half) + 1] = ei - ti;
            }
        }
        size *= 2;
    }
}

fn twiddle(p: &FftParams, r: usize, c: usize, vr: f64, vi: f64) -> (f64, f64) {
    let w = -2.0 * PI * (r * c) as f64 / p.n() as f64;
    let (wr, wi) = (w.cos(), w.sin());
    (vr * wr - vi * wi, vr * wi + vi * wr)
}

fn fft_row_flops(cols: usize) -> u64 {
    // ~10 flops per butterfly, cols/2·log2(cols) butterflies.
    (10 * (cols / 2) * cols.trailing_zeros() as usize) as u64
}

/// Run the parallel FFT; returns the checksum of this node's block of
/// the final (transposed) matrix.
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &FftParams) -> f64 {
    let nodes = dsm.nodes() as usize;
    let me = dsm.id().0 as usize;

    // Phase 0: initialize owned rows of A. The logical matrix holds the
    // input transposed (element [r][c] = x[c·rows + r]), which is what
    // makes the row-FFT / twiddle / transpose / row-FFT pipeline a true
    // DFT (bin q + s·cols lands at B[q][s]).
    let (lo, hi) = block_range(p.rows, nodes, me);
    for r in lo..hi {
        let mut row = Vec::with_capacity(p.cols * 2);
        for c in 0..p.cols {
            let (re, im) = input(p.n(), c * p.rows + r);
            row.push(re);
            row.push(im);
        }
        dsm.write_f64s(p.a_elem(r, 0), &row);
    }
    dsm.barrier(0);

    // Phase 1: FFT each owned row of A, then twiddle.
    for r in lo..hi {
        let mut row = dsm.read_f64s(p.a_elem(r, 0), p.cols * 2);
        fft_inplace(&mut row);
        for c in 0..p.cols {
            let (re, im) = twiddle(p, r, c, row[2 * c], row[2 * c + 1]);
            row[2 * c] = re;
            row[2 * c + 1] = im;
        }
        compute_flops(dsm, fft_row_flops(p.cols) + 8 * p.cols as u64);
        dsm.write_f64s(p.a_elem(r, 0), &row);
    }
    dsm.barrier(0);

    // Phase 2: transpose A into B — the all-to-all. Each node reads
    // every A row once (bulk reads, cached after the first fault) and
    // scatters its own columns into B.
    let (blo, bhi) = block_range(p.cols, nodes, me);
    let mut bblock = vec![0.0f64; (bhi - blo) * p.rows * 2];
    // The transpose streams sequentially through all of A: declare it
    // as the read-ahead window so a batching runtime can prefetch the
    // following rows' pages on every miss.
    {
        let _window = dsm.prefetch_window(GlobalAddr(0), p.n() * 16);
        for r in 0..p.rows {
            let arow = dsm.read_f64s(p.a_elem(r, 0), p.cols * 2);
            for br in blo..bhi {
                bblock[(br - blo) * p.rows * 2 + 2 * r] = arow[2 * br];
                bblock[(br - blo) * p.rows * 2 + 2 * r + 1] = arow[2 * br + 1];
            }
        }
    }
    if bhi > blo {
        dsm.write_f64s(p.b_elem(blo, 0), &bblock);
    }
    dsm.barrier(0);

    // Phase 3: FFT each owned row of B.
    let mut sum = 0.0;
    for br in blo..bhi {
        let mut row = dsm.read_f64s(p.b_elem(br, 0), p.rows * 2);
        fft_inplace(&mut row);
        compute_flops(dsm, fft_row_flops(p.rows));
        dsm.write_f64s(p.b_elem(br, 0), &row);
        sum += row.iter().sum::<f64>();
    }
    dsm.barrier(0);
    sum
}

/// Sequential reference: the identical algorithm, whole matrix.
pub fn reference(p: &FftParams) -> Vec<f64> {
    let mut a: Vec<f64> = Vec::with_capacity(p.n() * 2);
    for r in 0..p.rows {
        for c in 0..p.cols {
            let (re, im) = input(p.n(), c * p.rows + r);
            a.push(re);
            a.push(im);
        }
    }
    for r in 0..p.rows {
        let row = &mut a[r * p.cols * 2..(r + 1) * p.cols * 2];
        fft_inplace(row);
        for c in 0..p.cols {
            let (re, im) = twiddle(p, r, c, row[2 * c], row[2 * c + 1]);
            row[2 * c] = re;
            row[2 * c + 1] = im;
        }
    }
    // Transpose.
    let mut b = vec![0.0f64; p.n() * 2];
    for r in 0..p.rows {
        for c in 0..p.cols {
            b[(c * p.rows + r) * 2] = a[(r * p.cols + c) * 2];
            b[(c * p.rows + r) * 2 + 1] = a[(r * p.cols + c) * 2 + 1];
        }
    }
    for br in 0..p.cols {
        fft_inplace(&mut b[br * p.rows * 2..(br + 1) * p.rows * 2]);
    }
    b
}

/// Checksum of the reference block each of `nodes` nodes would own.
pub fn reference_block_sums(p: &FftParams, nodes: usize) -> Vec<f64> {
    block_sums(&reference(p), p.cols, p.rows * 2, 0, nodes)
}

impl App for FftParams {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        cfg.heap_bytes(self.heap_bytes())
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        vec![run(d, self).to_bits()]
    }

    /// Its sums, and their rounding, grow with the grid.
    fn verdict(&self, results: &[Words]) -> bool {
        let want = reference_block_sums(self, results.len());
        sums_match(results, &want, |want| 1e-9 * want.abs().max(1.0))
    }

    /// Its block of rows of A, then of B.
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
        let (lo, hi) = block_range(self.rows, nodes, rank);
        let (blo, bhi) = block_range(self.cols, nodes, rank);
        vec![
            self.a_elem(lo, 0).0..self.a_elem(hi, 0).0,
            self.b_elem(blo, 0).0..self.b_elem(bhi, 0).0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-step decomposition must equal a direct DFT (up to the
    /// known index permutation: output bin c·? lives at B[c][r]).
    #[test]
    fn decomposed_fft_matches_direct_dft() {
        let p = FftParams { rows: 4, cols: 8 };
        let b = reference(&p);
        let n = p.n();
        // Direct DFT.
        let mut direct = vec![0.0f64; 2 * n];
        for k in 0..n {
            let (mut sr, mut si) = (0.0, 0.0);
            for i in 0..n {
                let (re, im) = input(n, i);
                let w = -2.0 * PI * (k * i) as f64 / n as f64;
                let (wr, wi) = (w.cos(), w.sin());
                sr += re * wr - im * wi;
                si += re * wi + im * wr;
            }
            direct[2 * k] = sr;
            direct[2 * k + 1] = si;
        }
        // Six-step output mapping: DFT bin (q·rows + s) is at B[q][s],
        // i.e. b[(q*rows + s)*2] with q in 0..cols, s in 0..rows.
        for q in 0..p.cols {
            for s in 0..p.rows {
                let k = q + s * p.cols; // decimation-in-time index map
                let got = (b[(q * p.rows + s) * 2], b[(q * p.rows + s) * 2 + 1]);
                let want = (direct[2 * k], direct[2 * k + 1]);
                assert!(
                    (got.0 - want.0).abs() < 1e-6 && (got.1 - want.1).abs() < 1e-6,
                    "bin {k}: got {got:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    fn fft_inplace_parseval() {
        // Energy preserved (×len): Parseval's identity.
        let mut buf: Vec<f64> = (0..32).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let time_energy: f64 = buf.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum();
        fft_inplace(&mut buf);
        let freq_energy: f64 = buf.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum();
        assert!((freq_energy - 16.0 * time_energy).abs() < 1e-9);
    }
}
