//! The one fake [`ProtoIo`]: captures what a protocol sends so a test
//! can drive its state machine by hand. Compiled into this crate's
//! unit tests, and into `tests/protocol_units.rs` by path.
#![cfg(test)]

use crate::{ProtoIo, ProtoMsg};
use dsm_net::{CostModel, NodeId};

pub struct FakeIo {
    pub model: CostModel,
    /// Two-sided sends, in order.
    pub sent: Vec<(NodeId, ProtoMsg)>,
    /// One-sided sends, in order.
    pub one_sided: Vec<(NodeId, ProtoMsg)>,
    /// What [`ProtoIo::nic_delivery`] answers: set it to hand the
    /// protocol a message as the NIC would.
    pub nic: bool,
}

impl FakeIo {
    pub fn new(model: CostModel) -> Self {
        FakeIo {
            model,
            sent: Vec::new(),
            one_sided: Vec::new(),
            nic: false,
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
    fn nic_delivery(&self) -> bool {
        self.nic
    }
    fn model(&self) -> &CostModel {
        &self.model
    }
}
