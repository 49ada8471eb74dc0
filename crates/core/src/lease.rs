//! The hit fast path: a *lease* on the node's own frame memory.
//!
//! A `Go` grant carries a virtual-time budget (see
//! `dsm_net::AppHandle`). While that budget lasts, the application
//! program may service page hits entirely locally — no yield to the
//! event loop, no per-access heap event — by reading and writing the
//! node's frame table directly through this lease and charging the
//! modeled access cost to the budget. Faults, sync operations, and
//! budget exhaustion still yield.
//!
//! The budget is additionally clamped to the current lookahead
//! window's end (`Kernel::local_budget` takes the min with
//! `window_end`), so a lease can never run ahead of the point where
//! staged messages may be admitted.
//!
//! # Safety
//!
//! The lease and the loop-side [`crate::DsmNode`] share one
//! [`FrameTable`] through an [`UnsafeCell`]. This is sound by
//! ownership: the whole loop state — its nodes included — is one
//! boxed value (the *floor*, `dsm_net`'s driver), only the context that
//! owns the box runs, and the box changes hands only through a slot at
//! a context switch (programs are coroutines on the one thread that
//! called `Sim::run`). The program touches the table
//! through its lease only while its `AppHandle` holds the box, between
//! a grant and the next yield; protocol handlers touch it only from
//! the event loop, which needs `&mut` access to the same box. So the
//! two sides are never live at once, whichever stack either runs on,
//! and neither holds references across a hand-off. Protocol
//! downgrades (invalidations, write-protect) therefore publish to the
//! lease automatically — the rights table *is* the frame table the
//! protocol mutates.

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::node::DsmOp;
use dsm_mem::{FrameTable, GlobalAddr, SpaceLayout};
use dsm_net::{AppHandle, CostModel};

/// Shared ownership of one node's frame table (see module docs).
pub(crate) struct FrameCell(UnsafeCell<FrameTable>);

// SAFETY: accesses are serialized by ownership of the floor;
// see the module-level safety argument.
unsafe impl Send for FrameCell {}
unsafe impl Sync for FrameCell {}

impl FrameCell {
    pub(crate) fn new(table: FrameTable) -> Self {
        FrameCell(UnsafeCell::new(table))
    }

    /// Raw access; the caller must hold the floor (module docs).
    pub(crate) fn get(&self) -> *mut FrameTable {
        self.0.get()
    }
}

/// One node's hit fast path, held by the [`crate::Dsm`] handle inside
/// the application program.
pub struct Lease {
    frames: Arc<FrameCell>,
    layout: SpaceLayout,
    model: CostModel,
}

impl Lease {
    pub(crate) fn new(frames: Arc<FrameCell>, layout: SpaceLayout, model: CostModel) -> Self {
        Lease {
            frames,
            layout,
            model,
        }
    }

    /// Ensure `cost` more virtual time fits in the run-ahead budget,
    /// yielding accumulated time once to renew it if needed. False
    /// means the access must take the rendezvous path.
    fn budget_for(&self, h: &AppHandle<DsmOp, ()>, cost: dsm_net::Dur) -> bool {
        h.local_allows(cost) || (h.flush_local() && h.local_allows(cost))
    }

    /// Service a read hit locally. False if the page (or any page the
    /// range touches) lacks read rights, or the budget is exhausted.
    pub(crate) fn try_read(
        &self,
        h: &AppHandle<DsmOp, ()>,
        addr: GlobalAddr,
        buf: &mut [u8],
    ) -> bool {
        assert!(
            self.layout.in_bounds(addr, buf.len()),
            "read [{addr}, +{}) out of bounds",
            buf.len()
        );
        let cost = self.model.mem_copy(buf.len());
        if !self.budget_for(h, cost) {
            return false;
        }
        // SAFETY: this program owns the floor (between Go and the next yield).
        let ok = unsafe { (*self.frames.get()).try_read(addr, buf) };
        if ok {
            h.consume_local(cost);
        }
        ok
    }

    /// Service a write hit locally. False if write rights are missing
    /// anywhere in the range or the budget is exhausted.
    pub(crate) fn try_write(
        &self,
        h: &AppHandle<DsmOp, ()>,
        addr: GlobalAddr,
        data: &[u8],
    ) -> bool {
        assert!(
            self.layout.in_bounds(addr, data.len()),
            "write [{addr}, +{}) out of bounds",
            data.len()
        );
        let cost = self.model.mem_copy(data.len());
        if !self.budget_for(h, cost) {
            return false;
        }
        // SAFETY: this program owns the floor (between Go and the next yield).
        let ok = unsafe { (*self.frames.get()).try_write(addr, data) };
        if ok {
            h.consume_local(cost);
        }
        ok
    }
}
