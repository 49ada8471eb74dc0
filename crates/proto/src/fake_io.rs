//! The one fake [`ProtoIo`]: captures what a protocol sends so a test
//! can drive its state machine by hand. Compiled into this crate's
//! unit tests, and into `tests/protocol_units.rs` by path.
#![cfg(test)]

use crate::{ProtoIo, ProtoMsg};
use dsm_net::trace::Kind;
use dsm_net::{CostModel, NodeId};

pub struct FakeIo {
    pub model: CostModel,
    /// Two-sided sends, in order.
    pub sent: Vec<(NodeId, ProtoMsg)>,
    /// One-sided sends, in order.
    pub one_sided: Vec<(NodeId, ProtoMsg)>,
    /// Records, in order, as `(kind, unit, bytes)`.
    pub recs: Vec<(Kind, u64, u64)>,
}

impl FakeIo {
    pub fn new(model: CostModel) -> Self {
        FakeIo {
            model,
            sent: Vec::new(),
            one_sided: Vec::new(),
            recs: Vec::new(),
        }
    }
}

impl ProtoIo for FakeIo {
    fn send(&mut self, dst: NodeId, msg: ProtoMsg) {
        self.sent.push((dst, msg));
    }
    fn send_one_sided(&mut self, dst: NodeId, msg: ProtoMsg) {
        self.one_sided.push((dst, msg));
    }
    fn model(&self) -> &CostModel {
        &self.model
    }
    fn rec(&mut self, kind: Kind, unit: u64, bytes: u64) {
        self.recs.push((kind, unit, bytes));
    }
}
