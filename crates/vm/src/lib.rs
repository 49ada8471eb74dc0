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
//! views may live in one process. `dsm-core`'s cluster mode is one view
//! per node with the real protocol stack as its host, its frame table
//! kept in the view's memory. The smallest host installs whatever the
//! page should hold:
//!
//! ```no_run
//! use dsm_vm::{cluster::ACC_READ, os_page_size, ClusterView};
//!
//! let ps = os_page_size();
//! let view = ClusterView::new(2, ps).unwrap();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         while let Some(fault) = view.next_fault() {
//!             view.install_page(fault.page, &vec![42u8; ps], ACC_READ);
//!             view.finish_fault();
//!         }
//!     });
//!     // A plain load: it traps, parks until the host installs the page.
//!     assert_eq!(view.read::<u8>(ps), 42);
//!     view.stop();
//! });
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
pub mod cluster;
mod engine;
mod region;

pub use cluster::{ClusterView, ViewFault};
#[doc(hidden)]
pub use engine::{run_vm, VmConfig, VmMode, VmNode, VmRunResult};
pub use region::{os_page_size, Prot, Region};
