//! Causal time for lazy release consistency: a node's vector clock
//! plus the shared **barrier floor**, with a delta-encoded wire form.
//!
//! After every barrier all nodes hold the same clock (the global join
//! of everyone's departure clocks), so that clock is a fleet-wide
//! *floor*: every causal timestamp produced afterwards dominates it.
//! Instead of shipping dense `N × u32` vectors, [`VClockDelta`] ships
//! only the components that differ from a base clock — in the steady
//! state a handful of entries regardless of `N`. The base rides inside
//! the struct (this is a simulator; messages are in-memory values) but
//! is *modeled* on the wire as a fixed-size epoch tag: both ends of a
//! barrier-synchronized phase already share the floor, so a real
//! implementation transmits the epoch number, not the vector.
//!
//! In memory the base and the entry list are *shared*, not copied: a
//! delta holds an `Arc` of each, so encoding a clock against the floor
//! costs its entries and cloning a delta costs two reference counts.
//! A node's floor ([`CausalTime::floor`]) is one `Arc<VClock>` that
//! every clock and interval record it encodes during the epoch points
//! at, and a barrier root encodes the new epoch clock once and hands
//! the same delta to every node — at 512 nodes that is one 2 KiB clock
//! per node per epoch instead of one per message.

use crate::vclock::VClock;
use dsm_net::{Wire, WireReader};
use std::fmt;
use std::sync::Arc;

/// Sparse encoding of a vector clock as a diff against a base clock.
///
/// Lossless for *any* clock (components below the base are listed just
/// like components above it), so stale payloads — e.g. a release piggy
/// deposited at a central lock server and granted epochs later — still
/// expand exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VClockDelta {
    base: Arc<VClock>,
    /// `(node index, absolute count)` for every component that differs
    /// from `base`, indices ascending and inside it (`decode` checks).
    entries: Arc<[(u32, u32)]>,
}

impl VClockDelta {
    /// Encode `vc` as a diff against `base`, sharing `base`.
    pub fn against(vc: &VClock, base: &Arc<VClock>) -> Self {
        assert_eq!(vc.len(), base.len());
        let pairs = vc.as_slice().iter().zip(base.as_slice()).enumerate();
        let differing = pairs.filter(|(_, (v, b))| v != b);
        let entries = differing.map(|(i, (&v, _))| (i as u32, v)).collect();
        VClockDelta {
            base: Arc::clone(base),
            entries,
        }
    }

    /// Encode `vc` against the all-zero clock: every nonzero component
    /// travels. Used where no shared floor can be assumed (e.g. piggys
    /// deposited at a central lock server for an unknown future
    /// acquirer), so the modeled wire size stays honest.
    pub fn dense(vc: &VClock) -> Self {
        Self::against(vc, &Arc::new(VClock::new(vc.len())))
    }

    /// Reconstruct the full clock: base overwritten by the entries.
    pub fn expand(&self) -> VClock {
        let mut vc = VClock::clone(&self.base);
        for &(i, v) in self.entries.iter() {
            vc.set(i as usize, v);
        }
        vc
    }

    /// Join the clock this delta stands for into `vc` without building it:
    /// the base between entries, an entry where the base would be.
    pub fn join_into(&self, vc: &mut VClock) {
        assert_eq!(vc.len(), self.base.len());
        let (base, mut from) = (self.base.as_slice(), 0);
        for &(i, v) in self.entries.iter() {
            vc.join_slice(from, &base[from..i as usize]);
            vc.join_slice(i as usize, &[v]);
            from = i as usize + 1;
        }
        vc.join_slice(from, &base[from..]);
    }

    /// Number of components that travel.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Modeled wire size: a fixed epoch tag + entry count header (8
    /// bytes) plus `(u32 index, u32 count)` per changed component.
    pub fn wire_bytes(&self) -> usize {
        8 + self.entries.len() * 8
    }
}

impl Wire for VClockDelta {
    // The real encoding ships the base too (see the module doc: the
    // modeled wire size assumes a shared epoch tag, but the socket
    // backend has no side channel for the floor, so honesty beats the
    // model here).
    fn encode(&self, out: &mut Vec<u8>) {
        self.base.encode(out);
        self.entries.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let base = Arc::new(VClock::decode(r)?);
        let entries = Arc::<[(u32, u32)]>::decode(r)?;
        // `expand` and `join_into` index the base by these.
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        let inside = entries
            .last()
            .is_none_or(|&(i, _)| (i as usize) < base.len());
        (ascending && inside).then_some(VClockDelta { base, entries })
    }
}

impl fmt::Display for VClockDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{{")?;
        for (k, (i, v)) in self.entries.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}", i, v)?;
        }
        write!(f, "}}")
    }
}

/// A node's causal time: its current vector clock and the barrier
/// floor it last synchronized at. All wire encodings of clocks and
/// interval records are produced relative to the floor. From a barrier
/// until the clock next moves the two are one allocation.
#[derive(Debug, Clone)]
pub struct CausalTime {
    vt: Arc<VClock>,
    floor: Arc<VClock>,
}

impl CausalTime {
    pub fn new(n: usize) -> Self {
        CausalTime {
            vt: Arc::new(VClock::new(n)),
            floor: Arc::new(VClock::new(n)),
        }
    }

    /// The current clock.
    #[inline]
    pub fn now(&self) -> &VClock {
        &self.vt
    }

    /// The shared floor from the last barrier (all-zero before the
    /// first barrier): the handle every encoding of this epoch shares.
    #[inline]
    pub fn floor(&self) -> &Arc<VClock> {
        &self.floor
    }

    /// Bump own component `i`; returns the new value.
    pub fn tick(&mut self, i: usize) -> u32 {
        Arc::make_mut(&mut self.vt).inc(i)
    }

    /// Join `other` into the current clock.
    pub fn join(&mut self, other: &VClock) {
        Arc::make_mut(&mut self.vt).join(other);
    }

    /// Replace the current clock (barrier release installs the global
    /// join).
    pub fn set_now(&mut self, vc: VClock) {
        self.vt = Arc::new(vc);
    }

    /// Advance the floor to the current clock — called when a barrier
    /// epoch closes, after which all retained metadata is relative to
    /// the new floor.
    pub fn advance_floor(&mut self) {
        self.floor = Arc::clone(&self.vt);
    }

    /// Delta-encode an arbitrary clock against the floor.
    pub fn encode(&self, vc: &VClock) -> VClockDelta {
        VClockDelta::against(vc, &self.floor)
    }

    /// Delta-encode the current clock against the floor.
    pub fn encode_now(&self) -> VClockDelta {
        self.encode(&self.vt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_roundtrip_above_floor() {
        let mut floor = VClock::new(8);
        for i in 0..8 {
            floor.set(i, 10);
        }
        let mut vc = floor.clone();
        vc.set(2, 13);
        vc.set(5, 11);
        let d = VClockDelta::against(&vc, &Arc::new(floor));
        assert_eq!(d.len(), 2);
        assert_eq!(d.expand(), vc);
        assert_eq!(d.wire_bytes(), 8 + 16);
    }

    #[test]
    fn delta_roundtrip_below_floor_is_lossless() {
        let mut floor = VClock::new(4);
        for i in 0..4 {
            floor.set(i, 5);
        }
        let mut vc = VClock::new(4);
        vc.set(0, 5);
        vc.set(1, 2); // below the floor
        vc.set(2, 9);
        let d = VClockDelta::against(&vc, &Arc::new(floor));
        assert_eq!(d.expand(), vc);
        // components 1 (below), 2 (above), 3 (below) differ
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn dense_counts_nonzero_components() {
        let mut vc = VClock::new(16);
        vc.set(3, 1);
        vc.set(9, 4);
        let d = VClockDelta::dense(&vc);
        assert_eq!(d.len(), 2);
        assert_eq!(d.expand(), vc);
    }

    #[test]
    fn equal_clocks_encode_empty() {
        let vc = VClock::new(32);
        let d = VClockDelta::against(&vc, &Arc::new(vc.clone()));
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), 8);
    }

    /// Joining from a delta is joining its expansion — entries above
    /// the base, below it (a stale payload), at either end, or none.
    #[test]
    fn join_into_equals_joining_the_expansion() {
        let mut rng = dsm_net::XorShift64::new(0xDE17A);
        for case in 0..400 {
            let n = 1 + case % 17;
            let mut random = |density: u64| {
                let mut vc = VClock::new(n);
                for i in 0..n {
                    if rng.below(100) < density {
                        vc.set(i, rng.below(9) as u32);
                    }
                }
                vc
            };
            let base = Arc::new(random(70));
            let mut theirs = VClock::clone(&base);
            let changes = random([0, 15, 100][case % 3]);
            for i in (0..n).filter(|&i| changes.get(i) > 0) {
                // 1..=8 against a base of 0..=8: below as often as above.
                theirs.set(i, changes.get(i) - 1);
            }
            let delta = VClockDelta::against(&theirs, &base);
            let ours = random(50);
            let (mut joined, mut want) = (ours.clone(), ours);
            delta.join_into(&mut joined);
            want.join(&delta.expand());
            assert_eq!(joined, want, "case {case}: {delta} on {base}");
        }
    }

    /// An entry naming a component the base does not have, or entries
    /// out of order, would index out of bounds in `expand` /
    /// `join_into`: such a datagram is dropped at `decode`.
    #[test]
    fn decode_rejects_entries_outside_the_base_or_out_of_order() {
        let encoded = |entries: &[(u32, u32)]| {
            let mut bytes = dsm_net::to_wire_bytes(&VClock::new(4));
            entries.to_vec().encode(&mut bytes);
            dsm_net::from_wire_bytes::<VClockDelta>(&bytes)
        };
        let ok = encoded(&[(0, 3), (3, 1)]).expect("in bounds, ascending");
        assert_eq!(ok.expand().as_slice(), &[3, 0, 0, 1]);
        assert!(encoded(&[]).is_some());
        assert!(encoded(&[(4, 1)]).is_none(), "one past the end");
        assert!(encoded(&[(0, 1), (u32::MAX, 1)]).is_none());
        assert!(encoded(&[(2, 1), (1, 1)]).is_none(), "descending");
        assert!(encoded(&[(2, 1), (2, 5)]).is_none(), "repeated");
    }

    #[test]
    fn causal_time_floor_tracks_barriers() {
        let mut t = CausalTime::new(3);
        t.tick(0);
        t.tick(0);
        let mut other = VClock::new(3);
        other.set(1, 4);
        t.join(&other);
        assert_eq!(t.now().as_slice(), &[2, 4, 0]);
        // before a barrier the floor is zero, so the delta is dense-ish
        assert_eq!(t.encode_now().len(), 2);
        t.advance_floor();
        assert!(t.encode_now().is_empty());
        // One clock until the next tick, which leaves the floor behind.
        assert!(Arc::ptr_eq(&t.vt, &t.floor));
        t.tick(0);
        assert_eq!(t.encode_now().len(), 1);
        assert_eq!(t.floor().as_slice(), &[2, 4, 0]);
        assert_eq!(t.now().as_slice(), &[3, 4, 0]);
    }
}
