//! Traffic accounting: the fold of the record stream ([`crate::trace`])
//! that every run keeps. Every `Send` record counts under its message's
//! class; experiment harnesses print these tables directly.
//!
//! Folding is on the per-message hot path, so buckets live in a
//! fixed-size array indexed by a small per-kind id supplied by the
//! payload ([`crate::Payload::kind_id`]) — no map lookup per record.
//! Iteration stays in deterministic (alphabetical) name order so
//! experiment tables are unchanged.

use crate::trace::{Kind, Rec, Sink};
use std::fmt;

/// Number of statistics slots. Kind ids are assigned statically per
/// layer: coherence protocols use 0–31, synchronization 32–39,
/// scratch/test payloads 40–47, the reliable transport 48–55, the
/// one-sided rdma protocol 56–59, and object-granularity sharing
/// 60–62.
pub const MAX_KINDS: usize = 64;

/// Index of a message class in the fixed statistics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindId(pub u8);

impl KindId {
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Count and byte volume for one message class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    pub count: u64,
    pub bytes: u64,
}

/// Aggregate network traffic for a run.
///
/// Besides the per-kind send counts, three fault-era counters ride in
/// the same fixed-array style: messages the lossy network *dropped* or
/// *duplicated* (`Drop` and `Dup` records) and messages the reliable
/// transport *retransmitted* (`Retransmit` records, made by
/// [`crate::Reliable`]). A retransmitted copy is also recorded as a
/// normal send — it really crosses the wire again — so
/// `total_msgs` reflects everything transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    counts: [KindStats; MAX_KINDS],
    names: [Option<&'static str>; MAX_KINDS],
    dropped: [u64; MAX_KINDS],
    duplicated: [u64; MAX_KINDS],
    retransmits: [u64; MAX_KINDS],
    /// Scheduled node crashes that fired.
    pub crashes: u64,
    /// Scheduled node recoveries that fired.
    pub recoveries: u64,
    /// Messages/timers discarded because their destination was down.
    pub crash_dropped: u64,
    /// Messages discarded by an active link partition.
    pub partition_dropped: u64,
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats {
            counts: [KindStats { count: 0, bytes: 0 }; MAX_KINDS],
            names: [None; MAX_KINDS],
            dropped: [0; MAX_KINDS],
            duplicated: [0; MAX_KINDS],
            retransmits: [0; MAX_KINDS],
            crashes: 0,
            recoveries: 0,
            crash_dropped: 0,
            partition_dropped: 0,
        }
    }
}

impl NetStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `id` to `kind`, checking the one-to-one id↔name mapping:
    /// a sender names each message's class before it records it.
    #[inline]
    pub(crate) fn bind(&mut self, id: KindId, kind: &'static str) {
        let i = id.index();
        debug_assert!(
            self.names[i].is_none_or(|n| n == kind),
            "kind id {} reused: {} vs {}",
            i,
            self.names[i].unwrap_or(""),
            kind
        );
        self.names[i] = Some(kind);
    }

    /// The class bound to `id`, or `""`.
    pub(crate) fn name(&self, id: KindId) -> &'static str {
        self.names[id.index()].unwrap_or("")
    }

    /// Total messages across all classes.
    pub fn total_msgs(&self) -> u64 {
        self.counts.iter().map(|k| k.count).sum()
    }

    /// Total body bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.counts.iter().map(|k| k.bytes).sum()
    }

    /// Total messages lost by the network.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total messages duplicated by the network.
    pub fn total_duplicated(&self) -> u64 {
        self.duplicated.iter().sum()
    }

    /// Total retransmissions performed by the reliable transport.
    pub fn total_retransmits(&self) -> u64 {
        self.retransmits.iter().sum()
    }

    /// Stats for one message class (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.names
            .iter()
            .position(|n| *n == Some(kind))
            .map(|i| self.counts[i])
            .unwrap_or_default()
    }

    /// Iterate recorded classes in deterministic (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        let mut seen: Vec<(&'static str, KindStats)> = self
            .names
            .iter()
            .zip(self.counts.iter())
            .filter_map(|(n, k)| n.map(|n| (n, *k)))
            .collect();
        seen.sort_unstable_by_key(|(n, _)| *n);
        seen.into_iter()
    }

    /// Iterate per-class fault counters
    /// (`name, sent, dropped, duplicated, retransmits`) in
    /// deterministic (alphabetical) order.
    pub fn iter_faults(
        &self,
    ) -> impl Iterator<Item = (&'static str, KindStats, u64, u64, u64)> + '_ {
        let mut seen: Vec<_> = (0..MAX_KINDS)
            .filter_map(|i| {
                self.names[i].map(|n| {
                    (
                        n,
                        self.counts[i],
                        self.dropped[i],
                        self.duplicated[i],
                        self.retransmits[i],
                    )
                })
            })
            .collect();
        seen.sort_unstable_by_key(|(n, ..)| *n);
        seen.into_iter()
    }
}

/// The fold that is always on: traffic by class, and the fault counters.
impl Sink for NetStats {
    #[inline(always)]
    fn rec(&mut self, r: &Rec) {
        // No branch on the kind for the records of every message (the
        // hot path); one rarely taken for the faults.
        let i = r.msg.index();
        let send = u64::from(r.kind == Kind::Send);
        self.counts[i].count += send;
        self.counts[i].bytes += send * r.bytes;
        use Kind::*;
        if matches!(
            r.kind,
            Drop | Dup | Cut | Lost | Crash | Recover | Retransmit
        ) {
            match r.kind {
                Drop => self.dropped[i] += 1,
                Dup => self.duplicated[i] += 1,
                Retransmit => self.retransmits[i] += 1,
                Crash => self.crashes += 1,
                Recover => self.recoveries += 1,
                Lost => self.crash_dropped += 1,
                Cut => self.partition_dropped += 1,
                Issue | Retire | Send | Deliver { .. } | Resident | Log | Suspect => {}
            }
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let faulty = self.total_dropped() + self.total_duplicated() + self.total_retransmits() > 0;
        if faulty {
            writeln!(
                f,
                "{:<18} {:>10} {:>12} {:>8} {:>8} {:>8}",
                "kind", "msgs", "bytes", "dropped", "dup", "rexmit"
            )?;
            for (kind, k, d, u, r) in self.iter_faults() {
                writeln!(
                    f,
                    "{:<18} {:>10} {:>12} {:>8} {:>8} {:>8}",
                    kind, k.count, k.bytes, d, u, r
                )?;
            }
            write!(
                f,
                "{:<18} {:>10} {:>12} {:>8} {:>8} {:>8}",
                "TOTAL",
                self.total_msgs(),
                self.total_bytes(),
                self.total_dropped(),
                self.total_duplicated(),
                self.total_retransmits()
            )?;
            if self.crashes + self.recoveries + self.crash_dropped + self.partition_dropped > 0 {
                write!(
                    f,
                    "\ncrashes={} recoveries={} crash_dropped={} partition_dropped={}",
                    self.crashes, self.recoveries, self.crash_dropped, self.partition_dropped
                )?;
            }
            Ok(())
        } else {
            writeln!(f, "{:<18} {:>10} {:>12}", "kind", "msgs", "bytes")?;
            for (kind, k) in self.iter() {
                writeln!(f, "{:<18} {:>10} {:>12}", kind, k.count, k.bytes)?;
            }
            write!(
                f,
                "{:<18} {:>10} {:>12}",
                "TOTAL",
                self.total_msgs(),
                self.total_bytes()
            )?;
            if self.crashes + self.recoveries + self.crash_dropped + self.partition_dropped > 0 {
                write!(
                    f,
                    "\ncrashes={} recoveries={} crash_dropped={} partition_dropped={}",
                    self.crashes, self.recoveries, self.crash_dropped, self.partition_dropped
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NodeId;
    use crate::time::SimTime;

    /// Fold one record of `kind` for class (`id`, `name`).
    fn fold(s: &mut NetStats, kind: Kind, id: KindId, name: &'static str, bytes: u64) {
        s.bind(id, name);
        s.rec(&Rec::new(SimTime::ZERO, NodeId(0), kind, 1, id, bytes));
    }

    const READ_REQ: KindId = KindId(0);
    const PAGE: KindId = KindId(1);
    const X: KindId = KindId(40);
    const Y: KindId = KindId(41);

    #[test]
    fn record_and_totals() {
        let mut s = NetStats::new();
        fold(&mut s, Kind::Send, READ_REQ, "ReadReq", 8);
        fold(&mut s, Kind::Send, READ_REQ, "ReadReq", 8);
        fold(&mut s, Kind::Send, PAGE, "Page", 4096);
        assert_eq!(
            s.kind("ReadReq"),
            KindStats {
                count: 2,
                bytes: 16
            }
        );
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 16 + 4096);
        assert_eq!(s.kind("absent"), KindStats::default());
    }

    #[test]
    fn display_is_table() {
        let mut s = NetStats::new();
        fold(&mut s, Kind::Send, X, "A", 10);
        let text = format!("{}", s);
        assert!(text.contains("TOTAL"));
        assert!(text.contains("A"));
    }

    #[test]
    fn iter_is_alphabetical_regardless_of_id_order() {
        let mut s = NetStats::new();
        fold(&mut s, Kind::Send, Y, "Alpha", 1);
        fold(&mut s, Kind::Send, X, "Beta", 2);
        let order: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec!["Alpha", "Beta"]);
    }

    #[test]
    fn fault_counters_record() {
        let mut a = NetStats::new();
        fold(&mut a, Kind::Send, X, "X", 8);
        fold(&mut a, Kind::Drop, X, "X", 0);
        fold(&mut a, Kind::Dup, X, "X", 0);
        fold(&mut a, Kind::Retransmit, X, "X", 0);
        fold(&mut a, Kind::Retransmit, X, "X", 0);
        assert_eq!(a.total_dropped(), 1);
        assert_eq!(a.total_duplicated(), 1);
        assert_eq!(a.total_retransmits(), 2);
    }

    #[test]
    fn fault_counters_show_in_display_only_when_present() {
        let mut s = NetStats::new();
        fold(&mut s, Kind::Send, X, "X", 8);
        assert!(!format!("{s}").contains("rexmit"));
        fold(&mut s, Kind::Drop, X, "X", 0);
        let text = format!("{s}");
        assert!(text.contains("dropped"));
        assert!(text.contains("rexmit"));
    }

    #[test]
    fn fault_counters_affect_equality() {
        let mut a = NetStats::new();
        fold(&mut a, Kind::Send, X, "X", 1);
        let mut b = a.clone();
        assert_eq!(a, b);
        fold(&mut b, Kind::Drop, X, "X", 0);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_detects_differences() {
        let mut a = NetStats::new();
        fold(&mut a, Kind::Send, X, "X", 1);
        let mut b = a.clone();
        assert_eq!(a, b);
        fold(&mut b, Kind::Send, X, "X", 1);
        assert_ne!(a, b);
    }
}
