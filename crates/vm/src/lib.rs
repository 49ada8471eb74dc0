//! # dsm-vm — the real page-fault DSM engine
//!
//! Where the simulated engine (`dsm-core`) models distribution in
//! virtual time, this crate builds the *mechanism* page-based DSM is
//! named for: transparent loads and stores against `mmap`-ed views,
//! with `mprotect`-enforced access rights and a `SIGSEGV` handler that
//! turns violations into coherence actions — the IVY/TreadMarks
//! user-level virtual-memory trick.
//!
//! One type carries the mechanism: a [`ClusterView`] is a node's
//! memory — one memory mapped twice, as the program's view under
//! per-page rights and as its host's alias, the trap that parks a
//! faulting thread and the fault stream its host drains. Any number of
//! views may live in one process. [`run_vm`] is N views plus a
//! sequentially consistent write-invalidate policy served by threads of
//! this process; `dsm-core`'s cluster mode is one view per node with
//! the real protocol stack as its host, its frame table kept in the
//! view's memory.
//!
//! ```no_run
//! use dsm_vm::{run_vm, VmConfig, VmMode};
//!
//! let cfg = VmConfig::new(2, 4, VmMode::Invalidate);
//! let res = run_vm(cfg, |node| {
//!     if node.id() == 0 {
//!         node.write::<u64>(0, 41);
//!     }
//!     node.barrier();
//!     node.read::<u64>(0) + 1
//! });
//! assert_eq!(res.results, vec![42, 42]);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
pub mod cluster;
mod engine;
mod region;

pub use cluster::{ClusterView, ViewFault};
pub use engine::{run_vm, VmConfig, VmMode, VmNode, VmRunResult};
pub use region::{os_page_size, Prot, Region};
