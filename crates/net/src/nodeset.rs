//! A compact set of node ids (copysets, invalidation targets).

use crate::msg::NodeId;
use crate::wire::{Wire, WireReader};
use std::fmt;

/// Bitset over node ids. Grows on demand; cheap to clone for the node
/// counts DSM directories deal with (≤ a few thousand).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl Wire for NodeSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.words.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(NodeSet {
            words: Vec::<u64>::decode(r)?,
        })
    }
}

impl NodeSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set containing a single node.
    pub fn singleton(n: NodeId) -> Self {
        let mut s = Self::new();
        s.insert(n);
        s
    }

    /// Insert; returns true if newly added.
    pub fn insert(&mut self, n: NodeId) -> bool {
        let (w, b) = (n.index() / 64, n.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove; returns true if it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        let (w, b) = (n.index() / 64, n.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    pub fn contains(&self, n: NodeId) -> bool {
        let (w, b) = (n.index() / 64, n.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| NodeId((wi * 64 + b) as u32))
        })
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", n)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.insert(NodeId(100)));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(100)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert!(!s.contains(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_ascending() {
        let s: NodeSet = [NodeId(65), NodeId(1), NodeId(64)].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![NodeId(1), NodeId(64), NodeId(65)]);
    }

    #[test]
    fn display() {
        let s: NodeSet = [NodeId(2), NodeId(5)].into_iter().collect();
        assert_eq!(format!("{}", s), "{n2,n5}");
    }

    #[test]
    fn empty_behaviour() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.remove(NodeId(9)));
        s.insert(NodeId(0));
        s.clear();
        assert!(s.is_empty());
    }
}
