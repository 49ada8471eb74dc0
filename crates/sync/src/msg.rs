//! Synchronization wire messages, generic over a consistency
//! *piggyback*.
//!
//! DSM synchronization and coherence are coupled: lazy release
//! consistency ships interval records on lock grants, entry consistency
//! ships the guarded data itself, barriers carry flush/merge payloads.
//! The sync engines therefore treat the consistency payload as an
//! opaque `P:`[`SyncPiggy`] supplied by the coherence layer.

use dsm_net::{wire_enum, KindId, NodeId, Payload, Wire, WireReader};

/// Ids for application-level locks and barriers.
pub type LockId = u32;
/// Barrier identifier.
pub type BarrierId = u32;

/// Opaque consistency payload carried on sync messages. `Clone` is
/// required because sync messages are [`Payload`]s, which the network
/// may duplicate and the reliable transport may buffer for resend.
pub trait SyncPiggy: Send + Clone + 'static {
    /// The "no information" payload.
    fn empty() -> Self;
    /// Modeled wire size contribution.
    fn wire_bytes(&self) -> usize;
}

impl SyncPiggy for () {
    fn empty() {}
    fn wire_bytes(&self) -> usize {
        0
    }
}

/// One node's consistency payload inside a barrier arrival or release
/// — the unified envelope the barrier engines route up and down the
/// tree. Protocols produce one per node in `sync_depart` and consume
/// their own in `sync_arrive`.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncEnvelope<P> {
    pub node: NodeId,
    pub payload: P,
}

impl<P: Wire> Wire for SyncEnvelope<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.payload.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(SyncEnvelope {
            node: NodeId::decode(r)?,
            payload: P::decode(r)?,
        })
    }
}

impl<P> SyncEnvelope<P> {
    pub fn new(node: NodeId, payload: P) -> Self {
        SyncEnvelope { node, payload }
    }

    /// Modeled wire size: node tag + payload.
    pub fn wire_bytes(&self) -> usize
    where
        P: SyncPiggy,
    {
        4 + self.payload.wire_bytes()
    }
}

wire_enum! {
    /// Messages exchanged by the lock and barrier engines. Numbered in
    /// the synchronization band (32–39) of the statistics table: the
    /// number is both the wire tag and the [`KindId`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum SyncMsg<P> {
        /// Requester → lock home. `reqinfo` lets the eventual granter
        /// compute a minimal piggyback (e.g. the acquirer's vector clock).
        LockReq {
            lock: LockId,
            requester: NodeId,
            reqinfo: P,
        } = 32,
        /// Home → current tail (distributed queue lock): "grant to
        /// `requester` when you release".
        LockFwd {
            lock: LockId,
            requester: NodeId,
            reqinfo: P,
        } = 33,
        /// Granter → requester: the lock is yours; apply `piggy` first.
        LockGrant { lock: LockId, piggy: P } = 34,
        /// Releaser → server (centralized lock only).
        LockRel { lock: LockId, piggy: P } = 35,
        /// Barrier arrival, carrying the contributions of the sender's
        /// subtree (a single node for the centralized barrier).
        BarArrive {
            id: BarrierId,
            contributions: Vec<SyncEnvelope<P>>,
        } = 36,
        /// Barrier release flowing back down, carrying per-node payloads
        /// for every node in the receiver's subtree.
        BarRelease {
            id: BarrierId,
            releases: Vec<SyncEnvelope<P>>,
        } = 37,
    }
}

impl<P: SyncPiggy> Payload for SyncMsg<P> {
    fn wire_bytes(&self) -> usize {
        match self {
            SyncMsg::LockReq { reqinfo, .. } => 8 + reqinfo.wire_bytes(),
            SyncMsg::LockFwd { reqinfo, .. } => 8 + reqinfo.wire_bytes(),
            SyncMsg::LockGrant { piggy, .. } => 4 + piggy.wire_bytes(),
            SyncMsg::LockRel { piggy, .. } => 4 + piggy.wire_bytes(),
            SyncMsg::BarArrive { contributions, .. } => {
                4 + contributions.iter().map(|e| e.wire_bytes()).sum::<usize>()
            }
            SyncMsg::BarRelease { releases, .. } => {
                4 + releases.iter().map(|e| e.wire_bytes()).sum::<usize>()
            }
        }
    }

    fn kind(&self) -> &'static str {
        self.variant()
    }

    fn kind_id(&self) -> KindId {
        KindId(self.tag())
    }
}

/// What the sync engines need from the node they run on: a way to
/// send, and the seven points at which a coherence protocol attaches
/// payloads to synchronization. The engines ask at the moment a payload
/// is needed; the defaults are a host with nothing to attach.
pub trait SyncHost<P: SyncPiggy> {
    /// Send a sync message.
    fn send(&mut self, dst: NodeId, msg: SyncMsg<P>);
    /// Information to attach to this node's request for `lock`.
    fn acquire_reqinfo(&mut self, _lock: LockId) -> P {
        P::empty()
    }
    /// Payload for granting `lock` to `to`, given its `reqinfo`.
    fn grant_piggy(&mut self, _lock: LockId, _to: NodeId, _reqinfo: &P) -> P {
        P::empty()
    }
    /// Payload deposited with a centralized lock server on release.
    fn release_piggy(&mut self, _lock: LockId) -> P {
        P::empty()
    }
    /// Apply the payload received with a lock grant.
    fn on_acquired(&mut self, _lock: LockId, _piggy: P) {}
    /// Payload attached to this node's barrier arrival.
    fn sync_depart(&mut self) -> P {
        P::empty()
    }
    /// Apply the payload received with a barrier release.
    fn sync_arrive(&mut self, _piggy: P) {}
    /// Root only: turn everyone's arrivals into one release per node.
    fn merge_barrier(&mut self, arrivals: Vec<SyncEnvelope<P>>) -> Vec<SyncEnvelope<P>> {
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_include_piggy() {
        let m: SyncMsg<()> = SyncMsg::LockGrant { lock: 1, piggy: () };
        assert_eq!(m.wire_bytes(), 4);
        let m: SyncMsg<()> = SyncMsg::BarArrive {
            id: 0,
            contributions: vec![
                SyncEnvelope::new(NodeId(0), ()),
                SyncEnvelope::new(NodeId(1), ()),
            ],
        };
        assert_eq!(m.wire_bytes(), 4 + 8);
        assert_eq!(m.kind(), "BarArrive");
    }
}
