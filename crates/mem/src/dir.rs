//! Page ownership directories.
//!
//! Write-invalidate protocols need, per page, the current owner and the
//! *copyset* — the set of nodes holding read copies that must be
//! invalidated before a write. Where that information lives is exactly
//! Li & Hudak's manager-scheme design axis (centralized, fixed
//! distributed, dynamic distributed); this module provides the entry
//! type and the placement maps the schemes share.

use crate::PageMap;
use dsm_net::{NodeId, NodeSet};

/// Authoritative directory knowledge about one page.
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// Node holding the (single) writable copy, or the last writer.
    pub owner: NodeId,
    /// Nodes holding read copies (including possibly the owner).
    pub copyset: NodeSet,
    /// A request is being serviced; further requests must queue.
    /// Serializes racing fetches for the same page.
    pub locked: bool,
    /// Requests queued while `locked`.
    pub pending: Vec<PendingReq>,
}

/// A queued page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingReq {
    pub from: NodeId,
    pub write: bool,
}

impl DirEntry {
    /// New entry: `owner` holds the only (writable) copy.
    pub fn new(owner: NodeId) -> Self {
        DirEntry {
            owner,
            copyset: NodeSet::singleton(owner),
            locked: false,
            pending: Vec::new(),
        }
    }
}

/// A directory over many pages, owned by whichever node plays manager
/// for them.
#[derive(Debug, Default)]
pub struct Directory {
    entries: PageMap<usize, DirEntry>,
}

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the entry for `page`, defaulting ownership to
    /// `default_owner` (the page's home).
    pub fn entry_mut(&mut self, page: usize, default_owner: NodeId) -> &mut DirEntry {
        self.entries
            .entry(page)
            .or_insert_with(|| DirEntry::new(default_owner))
    }

    pub fn get(&self, page: usize) -> Option<&DirEntry> {
        self.entries.get(&page)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Deterministic home-node placement for pages/locks: round-robin by
/// id. Both the fixed-distributed manager scheme and lock managers use
/// this to spread authority across nodes.
#[inline]
pub fn home_node(id: usize, nnodes: u32) -> NodeId {
    NodeId((id % nnodes as usize) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_defaults() {
        let e = DirEntry::new(NodeId(3));
        assert_eq!(e.owner, NodeId(3));
        assert!(e.copyset.contains(NodeId(3)));
        assert_eq!(e.copyset.len(), 1);
        assert!(!e.locked);
        assert!(e.pending.is_empty());
    }

    #[test]
    fn directory_creates_on_demand() {
        let mut d = Directory::new();
        assert!(d.get(5).is_none());
        d.entry_mut(5, NodeId(1)).copyset.insert(NodeId(2));
        assert_eq!(d.get(5).unwrap().owner, NodeId(1));
        assert_eq!(d.len(), 1);
        // Second access does not reset.
        assert!(d.entry_mut(5, NodeId(9)).copyset.contains(NodeId(2)));
        assert_eq!(d.get(5).unwrap().owner, NodeId(1));
    }

    #[test]
    fn home_node_round_robin() {
        assert_eq!(home_node(0, 4), NodeId(0));
        assert_eq!(home_node(5, 4), NodeId(1));
        assert_eq!(home_node(7, 4), NodeId(3));
        assert_eq!(home_node(3, 1), NodeId(0));
    }
}
