//! One record stream. Everything a run observes of itself — a message
//! sent, lost or delivered, a crash, an op issued and retired, what only
//! a protocol sees — is one [`Rec`]. The kernel folds each record into
//! the run's [`crate::NetStats`], keeps its node's last [`RING`] records
//! of the rarer kinds for the watchdog's dump, and hands it to the [`Sink`] of
//! [`crate::Sim::run_traced`]; [`crate::Sim::run`]'s sink is `()`.
//!
//! **Causes.** The kernel mints a cause id when it dispatches a
//! program's op ([`Kind::Issue`]). The cause rides every delivery and
//! timer, not the payload: what a handler sends, sets or records
//! inherits the cause of the event it handles, so the records of one
//! cause are the hops behind one access. Records outside any op (a start
//! hook, a crash) carry cause 0. The kernel reads nothing back from a
//! sink, so a trace never steers a run.

use crate::msg::NodeId;
use crate::stats::KindId;
use crate::time::SimTime;

/// What a record says happened, and what its `unit` and `bytes` hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The node's program issued an op, under a new cause.
    Issue,
    /// The node's open op completed: its reply goes to the program.
    Retire,
    /// A message of class `msg`, `bytes` long, left for node `unit`.
    Send,
    /// A message from node `unit` reached the node: its NIC if `nic` (a
    /// one-sided delivery), else its protocol.
    Deliver {
        nic: bool,
    },
    /// The network lost a message to node `unit`.
    Drop,
    /// The network duplicated a message to node `unit`.
    Dup,
    /// A partition cut a message to node `unit`.
    Cut,
    /// A delivery from node `unit`, or a timer, died: the node was down.
    Lost,
    Crash,
    Recover,
    /// The reliable transport resent a frame to node `unit`.
    Retransmit,
    /// The reliable transport suspects node `unit`: a crash notice, or
    /// `suspect_after` timeouts in a row.
    Suspect,
    /// LRC's metadata at a sync point: `unit` interval records, `bytes`
    /// resident bytes. The largest is its high-water mark.
    Resident,
    /// LRC's interval log changed (an interval closed, or a barrier
    /// retired the epoch): the fields of `Resident`.
    Log,
}

impl Kind {
    /// The kinds every message and every op makes. The kernel keeps
    /// them out of its rings: writing them there cost the event loop 5–9 %
    /// of its throughput on `sim_kv_ivy` (a 2-core x86-64 host), and a
    /// node's open op is kept beside its ring.
    #[inline(always)]
    pub(crate) fn hot(self) -> bool {
        matches!(
            self,
            Kind::Send | Kind::Deliver { .. } | Kind::Issue | Kind::Retire
        )
    }
}

/// One observation: 40 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Virtual time on the simulator, wall-clock ns on a socket.
    pub at: SimTime,
    pub node: u32,
    pub kind: Kind,
    /// The message class, on a record about a message.
    pub msg: KindId,
    pub unit: u64,
    pub bytes: u64,
    /// The op the record belongs to; 0 for none.
    pub cause: u32,
}

impl Rec {
    /// A record of `kind` on `node`; the kernel stamps its cause.
    #[inline(always)]
    pub fn new(at: SimTime, node: NodeId, kind: Kind, unit: u64, msg: KindId, bytes: u64) -> Rec {
        let (node, cause) = (node.0, 0);
        Rec {
            at,
            node,
            kind,
            msg,
            unit,
            bytes,
            cause,
        }
    }

    /// One line of the watchdog's dump (which holds no [`Kind::hot`]
    /// record); `name` is `msg`'s class.
    pub(crate) fn line(&self, name: &str) -> String {
        let (at, c, k, u) = (self.at, self.cause, self.kind, self.unit);
        match k {
            Kind::Drop | Kind::Dup | Kind::Cut | Kind::Retransmit => {
                format!("{at} c{c} {k:?} {name} to n{u}")
            }
            Kind::Suspect => format!("{at} c{c} Suspect n{u}"),
            Kind::Resident | Kind::Log => format!("{at} c{c} {k:?} {u} {}", self.bytes),
            _ => format!("{at} c{c} {k:?}"),
        }
    }
}

/// Where records go.
pub trait Sink {
    fn rec(&mut self, r: &Rec);
}

impl Sink for () {
    #[inline(always)]
    fn rec(&mut self, _: &Rec) {}
}

impl Sink for Vec<Rec> {
    fn rec(&mut self, r: &Rec) {
        self.push(*r);
    }
}

impl<F: FnMut(&Rec)> Sink for F {
    fn rec(&mut self, r: &Rec) {
        self(r);
    }
}

/// Records the kernel keeps per node for the watchdog's dump: the last
/// few that are not [`Kind::hot`].
pub(crate) const RING: usize = 8;

/// Each node's last [`RING`] records, and how many it has made.
pub(crate) struct Rings(Vec<(usize, [Option<Rec>; RING])>);

impl Rings {
    pub(crate) fn new(nodes: usize) -> Self {
        Rings(vec![(0, [None; RING]); nodes])
    }

    /// Node `n`'s kept records, oldest first.
    pub(crate) fn of(&self, n: usize) -> impl Iterator<Item = &Rec> {
        let (made, ring) = &self.0[n];
        (0..RING).filter_map(move |k| ring[(made + k) % RING].as_ref())
    }
}

impl Sink for Rings {
    #[inline(always)]
    fn rec(&mut self, r: &Rec) {
        let (made, ring) = &mut self.0[r.node as usize];
        ring[*made % RING] = Some(*r);
        *made += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_forty_bytes() {
        assert!(std::mem::size_of::<Rec>() <= 40);
    }

    #[test]
    fn a_ring_keeps_each_nodes_last_records_oldest_first() {
        let mut rings = Rings::new(2);
        let at = |t| Rec::new(SimTime(t), NodeId(1), Kind::Issue, 0, KindId(0), 0);
        (0..3).for_each(|t| rings.rec(&at(t)));
        let times = |r: &Rings| r.of(1).map(|r| r.at.0).collect::<Vec<_>>();
        assert_eq!(times(&rings), [0, 1, 2]);
        (3..20).for_each(|t| rings.rec(&at(t)));
        assert_eq!(times(&rings), (12..20).collect::<Vec<_>>());
        assert_eq!(rings.of(0).count(), 0);
    }
}
