//! # dsm-apps — application kernels for the DSM experiment suite
//!
//! Re-implementations of the workloads the DSM literature evaluated
//! with, each written once over `&Dsm<'_, impl Engine>` — so the same
//! program runs in the simulator and on real pages — and paired with a
//! sequential reference used as a coherence oracle. Each runnable
//! kernel's params type is an [`App`]: the machine it needs, its
//! program and its verdict, in its own module; the [`table`] names them
//! for `dsmrun`, `dsm-cluster` and the oracle tests, and the
//! experiments run them through [`Run`].
//!
//! * [`sor`] — red-black successive over-relaxation (nearest-neighbor
//!   stencil, boundary-page sharing);
//! * [`jacobi`] — double-buffered Jacobi iteration (bulk-synchronous);
//! * [`fft`] — 2-D decomposition FFT (all-to-all transpose);
//! * [`matmul`] — blocked matrix multiply (read-replication heavy);
//! * [`gauss`] — Gaussian elimination (pivot-row broadcast);
//! * [`taskqueue`] — master-worker queue (mutual-exclusion bound);
//! * [`tsp`] — branch-and-bound TSP (migratory lock-guarded state);
//! * [`sort`] — bucket sort (all-to-all scatter);
//! * [`false_sharing`] — packed private counters (the false-sharing
//!   microkernel);
//! * [`chase`] — pointer chasing over interleaved linked elements
//!   (the object-granularity showcase, E22);
//! * [`kv`] — the Zipf-skewed key-value board under striped locks
//!   (E21).

#![deny(clippy::undocumented_unsafe_blocks)]
pub mod chase;
pub mod false_sharing;
pub mod fft;
pub mod gauss;
pub mod jacobi;
pub mod kv;
pub mod matmul;
pub mod sor;
pub mod sort;
pub mod table;
pub mod taskqueue;
pub mod tsp;
pub mod util;

pub use table::{plan, App, Run, TableApp, Words, APPS};
