//! The repo benchmark: six pinned workloads over both engines, a
//! per-layer cost ledger, and a traced pass. See `README.md`.

pub mod child;
pub mod cluster;
pub mod fleet;
pub mod hostref;
pub mod json;
pub mod ledger;
pub mod pass;
pub mod report;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
