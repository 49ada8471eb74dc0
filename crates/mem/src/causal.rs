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
//! In memory a delta is two shared clocks, the full one and its base,
//! plus the number of components in which they differ: encoding a clock
//! against the floor costs two reference counts and one scan that
//! allocates nothing, and the entry list exists only while `encode`
//! writes it. A node's floor ([`CausalTime::floor`]) is one
//! `Arc<VClock>` that every clock and interval record it encodes during
//! the epoch points at, its current clock is shared by the interval
//! records it closes and the requests it sends until it next moves, and
//! a barrier root builds the new epoch clock once and hands the same
//! `Arc` to every node, which installs it as both its clock and its
//! floor — at 512 nodes one 2 KiB clock per epoch for the fleet.

use crate::vclock::VClock;
use dsm_net::{Wire, WireReader};
use std::fmt;
use std::sync::Arc;

/// Sparse encoding of a vector clock as a diff against a base clock.
///
/// Lossless for *any* clock (components below the base are listed just
/// like components above it), so stale payloads — e.g. a release piggy
/// deposited at a central lock server and granted epochs later — still
/// travel exactly. The derived `PartialEq` compares values: the count
/// is a function of the two clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VClockDelta {
    clock: Arc<VClock>,
    base: Arc<VClock>,
    /// Components in which `clock` and `base` differ: the entries that
    /// travel.
    differ: u32,
}

impl VClockDelta {
    /// Encode `vc` as a diff against `base`, sharing both.
    pub fn against(vc: &Arc<VClock>, base: &Arc<VClock>) -> Self {
        assert_eq!(vc.len(), base.len());
        let differ = if Arc::ptr_eq(vc, base) {
            0
        } else {
            let pairs = vc.as_slice().iter().zip(base.as_slice());
            pairs.filter(|(v, b)| v != b).count() as u32
        };
        VClockDelta {
            clock: Arc::clone(vc),
            base: Arc::clone(base),
            differ,
        }
    }

    /// Encode `vc` against the all-zero clock: every nonzero component
    /// travels. Used where no shared floor can be assumed (e.g. piggys
    /// deposited at a central lock server for an unknown future
    /// acquirer), so the modeled wire size stays honest.
    pub fn dense(vc: &Arc<VClock>) -> Self {
        Self::against(vc, &Arc::new(VClock::new(vc.len())))
    }

    /// The clock this delta stands for.
    #[inline]
    pub fn clock(&self) -> &Arc<VClock> {
        &self.clock
    }

    /// Join the clock this delta stands for into `vc`.
    pub fn join_into(&self, vc: &mut VClock) {
        vc.join(&self.clock);
    }

    /// `(index, count)` of every component that differs from the base,
    /// ascending: what travels.
    fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let pairs = self.clock.as_slice().iter().zip(self.base.as_slice());
        let differing = pairs.enumerate().filter(|(_, (v, b))| v != b);
        differing.map(|(i, (&v, _))| (i as u32, v))
    }

    /// Number of components that travel.
    pub fn len(&self) -> usize {
        self.differ as usize
    }

    pub fn is_empty(&self) -> bool {
        self.differ == 0
    }

    /// Modeled wire size: a fixed epoch tag + entry count header (8
    /// bytes) plus `(u32 index, u32 count)` per changed component.
    pub fn wire_bytes(&self) -> usize {
        8 + self.len() * 8
    }
}

impl Wire for VClockDelta {
    // The real encoding ships the base too (see the module doc: the
    // modeled wire size assumes a shared epoch tag, but the socket
    // backend has no side channel for the floor, so honesty beats the
    // model here), then the entries as a `Vec<(u32, u32)>` would.
    fn encode(&self, out: &mut Vec<u8>) {
        self.base.encode(out);
        self.differ.encode(out);
        for entry in self.entries() {
            entry.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let base = Arc::new(VClock::decode(r)?);
        let entries = Vec::<(u32, u32)>::decode(r)?;
        // The clock is rebuilt by indexing the base with these.
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        let inside = entries
            .last()
            .is_none_or(|&(i, _)| (i as usize) < base.len());
        if !(ascending && inside) {
            return None;
        }
        let mut vc = VClock::clone(&base);
        for (i, v) in entries {
            vc.set(i as usize, v);
        }
        Some(Self::against(&Arc::new(vc), &base))
    }
}

impl fmt::Display for VClockDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{{")?;
        for (k, (i, v)) in self.entries().enumerate() {
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

    /// The current clock, shared: an interval record closed now holds
    /// this very allocation until the clock next moves.
    #[inline]
    pub fn now(&self) -> &Arc<VClock> {
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

    /// Advance the floor to the current clock — called when a barrier
    /// epoch closes, after which all retained metadata is relative to
    /// the new floor.
    pub fn advance_floor(&mut self) {
        self.floor = Arc::clone(&self.vt);
    }

    /// Install a barrier's epoch clock as both the current clock and
    /// the floor, sharing it with every node the barrier released.
    pub fn install_epoch(&mut self, vt: &Arc<VClock>) {
        self.vt = Arc::clone(vt);
        self.floor = Arc::clone(vt);
    }

    /// Delta-encode an arbitrary clock against the floor.
    pub fn encode(&self, vc: &Arc<VClock>) -> VClockDelta {
        VClockDelta::against(vc, &self.floor)
    }

    /// Delta-encode the current clock against the floor, sharing it.
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
        let d = VClockDelta::against(&Arc::new(vc.clone()), &Arc::new(floor));
        assert_eq!(d.len(), 2);
        assert_eq!(**d.clock(), vc);
        assert_eq!(d.wire_bytes(), 8 + 16);
        assert_eq!(
            dsm_net::from_wire_bytes(&dsm_net::to_wire_bytes(&d)),
            Some(d)
        );
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
        let d = VClockDelta::against(&Arc::new(vc.clone()), &Arc::new(floor));
        // components 1 (below), 2 (above), 3 (below) differ
        assert_eq!(d.len(), 3);
        assert_eq!(d.to_string(), "Δ{1:2,2:9,3:0}");
        let back: VClockDelta = dsm_net::from_wire_bytes(&dsm_net::to_wire_bytes(&d)).unwrap();
        assert_eq!(**back.clock(), vc);
    }

    #[test]
    fn dense_counts_nonzero_components() {
        let mut vc = VClock::new(16);
        vc.set(3, 1);
        vc.set(9, 4);
        let d = VClockDelta::dense(&Arc::new(vc.clone()));
        assert_eq!(d.len(), 2);
        assert_eq!(**d.clock(), vc);
    }

    #[test]
    fn equal_clocks_encode_empty() {
        let vc = Arc::new(VClock::new(32));
        let d = VClockDelta::against(&vc, &Arc::new(VClock::clone(&vc)));
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), 8);
        assert!(VClockDelta::against(&vc, &vc).is_empty());
    }

    /// Joining from a delta is joining the clock it stands for, also
    /// once that clock is rebuilt from the base and the entries that
    /// travel — entries above the base, below it (a stale payload), at
    /// either end, or none.
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
            let delta = VClockDelta::against(&Arc::new(theirs.clone()), &base);
            let decoded: VClockDelta =
                dsm_net::from_wire_bytes(&dsm_net::to_wire_bytes(&delta)).expect("round trip");
            assert_eq!(decoded, delta, "case {case}");
            let ours = random(50);
            let (mut joined, mut want) = (ours.clone(), ours);
            decoded.join_into(&mut joined);
            want.join(&theirs);
            assert_eq!(joined, want, "case {case}: {delta} on {base}");
        }
    }

    /// An entry naming a component the base does not have, or entries
    /// out of order, would index out of bounds while `decode` rebuilds
    /// the clock: such a datagram is dropped there.
    #[test]
    fn decode_rejects_entries_outside_the_base_or_out_of_order() {
        let encoded = |entries: &[(u32, u32)]| {
            let mut bytes = dsm_net::to_wire_bytes(&VClock::new(4));
            entries.to_vec().encode(&mut bytes);
            dsm_net::from_wire_bytes::<VClockDelta>(&bytes)
        };
        let ok = encoded(&[(0, 3), (3, 1)]).expect("in bounds, ascending");
        assert_eq!(ok.clock().as_slice(), &[3, 0, 0, 1]);
        assert_eq!(ok.len(), 2);
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

    /// Encoding the current clock copies nothing: the delta holds the
    /// clock and the floor themselves, and the clock is copied only
    /// when it next moves. A barrier's epoch clock becomes both.
    #[test]
    fn encodings_share_the_clocks_they_stand_for() {
        let mut t = CausalTime::new(4);
        t.tick(2);
        let sent = t.encode_now();
        assert!(Arc::ptr_eq(sent.clock(), t.now()) && Arc::ptr_eq(&sent.base, t.floor()));
        t.tick(2);
        assert!(!Arc::ptr_eq(sent.clock(), t.now()));
        assert_eq!((sent.clock().get(2), t.now().get(2)), (1, 2));

        let epoch = Arc::new(VClock::clone(t.now()));
        t.install_epoch(&epoch);
        assert!(Arc::ptr_eq(t.now(), &epoch) && Arc::ptr_eq(t.floor(), &epoch));
        assert!(t.encode_now().is_empty());
    }
}
