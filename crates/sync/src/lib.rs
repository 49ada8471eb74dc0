//! # dsm-sync — distributed synchronization for page-based DSM
//!
//! Lock and barrier engines in the style DSM systems used:
//!
//! * [`LockEngine`] — centralized server locks and distributed queue
//!   locks (token handoff with forwarding through the lock's home);
//! * [`BarrierEngine`] — centralized and combining-tree barriers.
//!
//! Both are pure message-driven state machines, generic over a
//! consistency *piggyback* [`SyncPiggy`]: release consistency ships
//! write intervals on grants, entry consistency ships guarded data, and
//! barriers carry flush/merge payloads. They send through, and ask
//! every payload of, the [`SyncHost`] of the node they run on;
//! [`SyncEngines`] is a node's pair of engines. The DSM node's host
//! forwards to its coherence protocol; [`SyncNode`] is the pair with
//! nothing attached, a standalone [`dsm_net::NodeBehavior`] for
//! isolated tests and the lock/barrier scaling experiments.

#![deny(clippy::undocumented_unsafe_blocks)]
mod barrier;
mod engines;
mod lock;
mod msg;
mod standalone;

pub use barrier::{BarrierEngine, BarrierKind};
pub use engines::{SyncDone, SyncEngines};
pub use lock::{lock_home, LockEngine, LockKind};
pub use msg::{BarrierId, LockId, SyncEnvelope, SyncHost, SyncMsg, SyncPiggy};
pub use standalone::{SyncNode, SyncOp};
