//! # dsm-mem — memory substrate for page-based DSM
//!
//! The data structures every page-based software DSM is built from,
//! independent of any particular coherence protocol:
//!
//! * [`GlobalAddr`]/[`PageId`]/[`PageGeometry`] — the flat shared byte
//!   space and its division into power-of-two pages;
//! * [`FrameTable`]/[`Access`] — a node's local page copies and their
//!   MMU-style access rights (insufficient rights = a fault, which is
//!   what drives the protocols);
//! * [`PageDiff`] — twin/diff encoding for multiple-writer protocols;
//! * [`VClock`], [`IntervalId`]/[`IntervalRecord`] — vector timestamps
//!   and interval bookkeeping for lazy release consistency;
//! * [`CausalTime`]/[`VClockDelta`]/[`WireIntervalRecord`] — the
//!   barrier-floor view of causal time and its delta-encoded wire
//!   forms;
//! * [`Directory`]/[`DirEntry`]/[`NodeSet`] — owner + copyset tracking
//!   for write-invalidate manager schemes;
//! * [`PageMap`]/[`PageSet`] — the hash tables all of the above (and
//!   every protocol) key by page number;
//! * [`ObjTable`]/[`ObjRecord`] — id → (address, length, home) layout
//!   metadata for object-granularity sharing.

mod addr;
mod causal;
mod diff;
mod dir;
mod frame;
mod interval;
mod layout;
mod objtable;
mod vclock;

pub use addr::{GlobalAddr, PageGeometry, PageId};
pub use causal::{CausalTime, VClockDelta};
pub use diff::PageDiff;
pub use dir::{home_node, DirEntry, Directory, PendingReq};
pub use dsm_net::{NodeSet, PageHasher, PageMap, PageSet};
pub use frame::{Access, Frame, FrameTable};
pub use interval::{IntervalId, IntervalRecord, WireIntervalRecord};
pub use layout::{Placement, SpaceLayout};
pub use objtable::{ObjRecord, ObjTable};
pub use vclock::VClock;
