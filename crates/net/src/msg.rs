//! Node identity and message payload abstractions.

use crate::stats::KindId;
use std::fmt;

/// Identity of a simulated node (processor). Dense, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A message payload that the network can cost and account for.
///
/// `wire_bytes` is the modeled on-the-wire size (headers excluded; the
/// cost model adds a fixed per-message header). `kind` is a short label
/// used to aggregate traffic statistics per message class, e.g.
/// `"ReadReq"` or `"Diff"`.
///
/// `Clone` is required so the network can duplicate a message in flight
/// (fault injection) and the reliable transport can buffer a copy for
/// retransmission; payloads are plain data, so a derive suffices.
pub trait Payload: Send + Clone + 'static {
    /// Modeled body size in bytes.
    fn wire_bytes(&self) -> usize;

    /// Statistics bucket for this message.
    fn kind(&self) -> &'static str;

    /// Fixed statistics slot for this message class; must be below
    /// [`crate::stats::MAX_KINDS`] and in one-to-one correspondence
    /// with [`Payload::kind`]. Id ranges are assigned per layer (see
    /// [`crate::stats::MAX_KINDS`]); messages declared through
    /// [`wire_enum!`](crate::wire_enum) use their wire tag.
    fn kind_id(&self) -> KindId;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(format!("{}", NodeId(7)), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }
}
