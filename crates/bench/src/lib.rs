//! # dsm-bench — experiment harnesses and benchmarks
//!
//! Regenerates every table/figure of EXPERIMENTS.md: `exp <name>`
//! prints one experiment; `run_all` prints the whole suite. The
//! Criterion benches (`cargo bench`) cover kernel throughput and whole
//! applications; the micro costs (diff machinery, real page faults,
//! access hits) are rows of the `benchmark/` ledger.

pub mod cli;
pub mod experiments;
pub mod json;
pub mod table;

pub use experiments::{run_all, Scale};
