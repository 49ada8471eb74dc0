//! Vector timestamps for lazy release consistency.
//!
//! Each node's execution is divided into *intervals* delimited by its
//! release operations; `VClock[i] = k` means "I have seen all of node
//! i's intervals up to k". LRC's acquire rule: the acquirer must apply
//! the write notices of every interval the releaser had seen that the
//! acquirer has not.

use dsm_net::{Wire, WireReader};
use std::cmp::Ordering;
use std::fmt;

/// A vector timestamp over a fixed node count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VClock {
    counts: Vec<u32>,
}

impl Wire for VClock {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counts.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(VClock {
            counts: Vec::<u32>::decode(r)?,
        })
    }
}

impl VClock {
    /// All-zero clock for `n` nodes.
    pub fn new(n: usize) -> Self {
        VClock { counts: vec![0; n] }
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Component for node `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.counts[i]
    }

    /// Set component for node `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        self.counts[i] = v;
    }

    /// Bump node `i`'s component; returns the new value.
    pub fn inc(&mut self, i: usize) -> u32 {
        self.counts[i] += 1;
        self.counts[i]
    }

    /// Pointwise maximum (least upper bound) with `other`.
    pub fn join(&mut self, other: &VClock) {
        assert_eq!(self.counts.len(), other.counts.len());
        self.join_slice(0, &other.counts);
    }

    /// Pointwise maximum of the components from `at` on with `other`.
    pub(crate) fn join_slice(&mut self, at: usize, other: &[u32]) {
        for (a, b) in self.counts[at..at + other.len()].iter_mut().zip(other) {
            *a = (*a).max(*b);
        }
    }

    /// `self[i] >= other[i]` for all i: self has seen everything other
    /// has.
    pub fn dominates(&self, other: &VClock) -> bool {
        assert_eq!(self.counts.len(), other.counts.len());
        self.counts.iter().zip(&other.counts).all(|(a, b)| a >= b)
    }

    /// Neither dominates: the clocks are concurrent.
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// Causal partial order: `Less` = strictly before, `Greater` =
    /// strictly after, `Equal`, or `None` when concurrent.
    pub fn causal_cmp(&self, other: &VClock) -> Option<Ordering> {
        let d1 = self.dominates(other);
        let d2 = other.dominates(self);
        match (d1, d2) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Greater),
            (false, true) => Some(Ordering::Less),
            (false, false) => None,
        }
    }

    /// Components as a slice (for wire-size accounting).
    pub fn as_slice(&self) -> &[u32] {
        &self.counts
    }

    /// Modeled wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.counts.len() * 4
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", c)?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_and_get() {
        let mut v = VClock::new(3);
        assert_eq!(v.inc(1), 1);
        assert_eq!(v.inc(1), 2);
        assert_eq!(v.get(1), 2);
        assert_eq!(v.get(0), 0);
    }

    #[test]
    fn join_is_lub() {
        let mut a = VClock::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = VClock::new(3);
        b.set(0, 2);
        b.set(1, 7);
        a.join(&b);
        assert_eq!(a.as_slice(), &[5, 7, 1]);
        assert!(a.dominates(&b));
    }

    #[test]
    fn causal_order_cases() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        assert_eq!(a.causal_cmp(&b), Some(Ordering::Equal));
        a.inc(0);
        assert_eq!(a.causal_cmp(&b), Some(Ordering::Greater));
        assert_eq!(b.causal_cmp(&a), Some(Ordering::Less));
        b.inc(1);
        assert_eq!(a.causal_cmp(&b), None);
        assert!(a.concurrent(&b));
    }

    #[test]
    fn wire_bytes() {
        assert_eq!(VClock::new(16).wire_bytes(), 64);
    }

    #[test]
    fn display() {
        let mut v = VClock::new(3);
        v.set(1, 4);
        assert_eq!(format!("{}", v), "<0,4,0>");
    }
}
