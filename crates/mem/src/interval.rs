//! Interval records and write notices — the bookkeeping vocabulary of
//! lazy release consistency (TreadMarks).
//!
//! A node's execution is split into **intervals** at each release (and
//! each local barrier departure). An interval is identified by its
//! creating node and a per-node sequence number, carries the vector
//! time at which it was *closed*, and lists the pages the node wrote
//! during it (its **write notices**). At acquire time the acquirer
//! learns of intervals it hasn't seen and invalidates the noticed
//! pages; the *diffs* for those pages are fetched lazily on the next
//! access fault.
//!
//! A record is immutable once closed, so its clock and page list are
//! shared, not copied: the creator's log, every grant that carries the
//! record and every receiver's log hold the same two allocations.

use crate::addr::PageId;
use crate::causal::VClockDelta;
use crate::vclock::VClock;
use dsm_net::{NodeId, Wire, WireReader};
use std::sync::Arc;

/// Identity of one interval: (creating node, per-node sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntervalId {
    pub node: NodeId,
    pub seq: u32,
}

impl IntervalId {
    pub fn new(node: NodeId, seq: u32) -> Self {
        IntervalId { node, seq }
    }
}

impl Wire for IntervalId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.seq.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(IntervalId {
            node: NodeId::decode(r)?,
            seq: r.u32()?,
        })
    }
}

/// A closed interval: what the releaser tells the acquirer. Cloning one
/// costs two reference counts.
#[derive(Debug, Clone)]
pub struct IntervalRecord {
    pub id: IntervalId,
    /// Vector time of the interval (component `id.node` equals
    /// `id.seq`; other components capture what the creator had seen).
    pub vc: Arc<VClock>,
    /// Pages written during the interval (the write notices).
    pub pages: Arc<[PageId]>,
}

impl IntervalRecord {
    /// Modeled wire size: clock + page list.
    pub fn wire_bytes(&self) -> usize {
        self.vc.wire_bytes() + 8 + self.pages.len() * 4
    }
}

/// Wire form of an [`IntervalRecord`]: the clock travels as a
/// [`VClockDelta`] against the sender's barrier floor, so in the
/// steady state a record costs a few entries instead of `N × u32`. In
/// memory it shares the record's clock and page list.
#[derive(Debug, Clone, PartialEq)]
pub struct WireIntervalRecord {
    pub id: IntervalId,
    pub vc: VClockDelta,
    pub pages: Arc<[PageId]>,
}

impl WireIntervalRecord {
    /// Compress a record against `base` (normally the barrier floor),
    /// sharing `base` with every other record compressed against it.
    pub fn against(rec: &IntervalRecord, base: &Arc<VClock>) -> Self {
        WireIntervalRecord {
            id: rec.id,
            vc: VClockDelta::against(&rec.vc, base),
            pages: Arc::clone(&rec.pages),
        }
    }

    /// The record this stands for, sharing its clock and page list.
    pub fn expand(&self) -> IntervalRecord {
        IntervalRecord {
            id: self.id,
            vc: Arc::clone(self.vc.clock()),
            pages: Arc::clone(&self.pages),
        }
    }

    /// Modeled wire size: id + delta clock + page list.
    pub fn wire_bytes(&self) -> usize {
        8 + self.vc.wire_bytes() + self.pages.len() * 4
    }
}

impl Wire for WireIntervalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.vc.encode(out);
        self.pages.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(WireIntervalRecord {
            id: IntervalId::decode(r)?,
            vc: VClockDelta::decode(r)?,
            pages: Arc::<[PageId]>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_id_orders_by_node_then_seq() {
        let a = IntervalId::new(NodeId(0), 5);
        let b = IntervalId::new(NodeId(1), 1);
        let c = IntervalId::new(NodeId(1), 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn record_wire_size() {
        let rec = IntervalRecord {
            id: IntervalId::new(NodeId(2), 1),
            vc: Arc::new(VClock::new(4)),
            pages: vec![PageId(1), PageId(9)].into(),
        };
        assert_eq!(rec.wire_bytes(), 16 + 8 + 8);
    }

    /// Compressing a record and expanding it again copies neither its
    /// clock nor its page list.
    #[test]
    fn the_wire_form_shares_the_record() {
        let mut vc = VClock::new(4);
        vc.set(2, 3);
        let rec = IntervalRecord {
            id: IntervalId::new(NodeId(2), 3),
            vc: Arc::new(vc),
            pages: vec![PageId(4)].into(),
        };
        let wire = WireIntervalRecord::against(&rec, &Arc::new(VClock::new(4)));
        assert_eq!((wire.vc.len(), wire.wire_bytes()), (1, 8 + 16 + 4));
        let back = wire.expand();
        assert!(Arc::ptr_eq(&back.vc, &rec.vc) && Arc::ptr_eq(&back.pages, &rec.pages));
    }
}
