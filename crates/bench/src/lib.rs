//! # dsm-bench — experiment harnesses and benchmarks
//!
//! Regenerates every table/figure of EXPERIMENTS.md: `exp <name>`
//! prints one experiment, `exp all` the whole suite. Tables on stdout
//! are all an experiment produces — wall-clock performance is recorded
//! by the `benchmark/` package (`BENCHMARK.json`), nowhere else. The
//! Criterion benches (`cargo bench`) cover kernel throughput and whole
//! applications; the micro costs (diff machinery, real page faults,
//! access hits) are rows of the `benchmark/` ledger.

#![deny(clippy::undocumented_unsafe_blocks)]
pub mod cli;
pub mod experiments;
pub mod table;

pub use experiments::{run_all, Scale};
