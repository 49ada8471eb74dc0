//! One node's synchronization machinery: the lock and barrier engines
//! side by side, and the routing of a [`SyncMsg`] to the one it is for.

use crate::barrier::{BarrierEngine, BarrierKind};
use crate::lock::{LockEngine, LockKind};
use crate::msg::{BarrierId, LockId, SyncHost, SyncMsg, SyncPiggy};
use dsm_net::NodeId;

/// A blocked operation of this node that a message just completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncDone {
    Acquired(LockId),
    Released(BarrierId),
}

/// One node's lock and barrier engines. Operations go to the engine
/// they concern; every payload they need or deliver goes through the
/// [`SyncHost`] passed along.
pub struct SyncEngines<P> {
    pub locks: LockEngine<P>,
    pub barriers: BarrierEngine<P>,
}

impl<P: SyncPiggy> SyncEngines<P> {
    pub fn new(lock_kind: LockKind, barrier_kind: BarrierKind, me: NodeId, nnodes: u32) -> Self {
        SyncEngines {
            locks: LockEngine::new(lock_kind, me, nnodes),
            barriers: BarrierEngine::new(barrier_kind, me, nnodes),
        }
    }

    /// Feed a synchronization message in; reports the operation of
    /// this node it completed, if any.
    pub fn on_message(
        &mut self,
        host: &mut impl SyncHost<P>,
        from: NodeId,
        msg: SyncMsg<P>,
    ) -> Option<SyncDone> {
        if let SyncMsg::BarArrive { .. } | SyncMsg::BarRelease { .. } = msg {
            let released = self.barriers.on_message(host, from, msg);
            released.map(SyncDone::Released)
        } else {
            let acquired = self.locks.on_message(host, from, msg);
            acquired.map(SyncDone::Acquired)
        }
    }
}
