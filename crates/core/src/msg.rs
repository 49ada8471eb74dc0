//! The combined wire message: coherence traffic plus synchronization
//! traffic, multiplexed over one simulated network.

use dsm_net::{wire_enum, KindId, Payload};
use dsm_proto::{Piggy, ProtoMsg};
use dsm_sync::SyncMsg;

wire_enum! {
    /// Everything that travels between DSM nodes. The two tags only
    /// select the layer; statistics see through to the inner message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CoreMsg {
        Proto(ProtoMsg) = 0,
        Sync(SyncMsg<Piggy>) = 1,
    }
}

impl Payload for CoreMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            CoreMsg::Proto(m) => m.wire_bytes(),
            CoreMsg::Sync(m) => m.wire_bytes(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            CoreMsg::Proto(m) => m.kind(),
            CoreMsg::Sync(m) => m.kind(),
        }
    }

    fn kind_id(&self) -> KindId {
        match self {
            CoreMsg::Proto(m) => m.kind_id(),
            CoreMsg::Sync(m) => m.kind_id(),
        }
    }
}
