//! Coherence wire messages and the consistency piggyback.
//!
//! All protocols share one message namespace (each uses its subset);
//! this keeps the runtime's dispatch trivial and the traffic statistics
//! uniform across protocols.
//!
//! Each enum is one [`wire_enum!`] table: a variant's number is both
//! its tag byte on a real socket and, for [`ProtoMsg`], its statistics
//! slot ([`KindId`]), and its fields are encoded in the order they are
//! declared. What the table does *not* fix is the modeled size
//! ([`Payload::wire_bytes`]): that is the cost model's truth — what a
//! 1992 implementation would have packed — and deliberately differs
//! from the physical encoding, which merely has to round-trip (see
//! `tests/wire_roundtrip.rs`).

use dsm_mem::{IntervalId, NodeSet, PageDiff, VClockDelta, WireIntervalRecord};
use dsm_net::{wire_enum, KindId, NodeId, Payload};
use dsm_sync::SyncPiggy;
use std::sync::Arc;

wire_enum! {
    /// Coherence protocol messages. Page ids travel as raw `usize`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProtoMsg {
        // ---- IVY write-invalidate (all manager schemes) ----
        /// Read fault: requester → manager (or probable-owner chain).
        ReadReq {
            page: usize,
        } = 0,
        /// Write fault: requester → manager (or probable-owner chain).
        WriteReq {
            page: usize,
        } = 1,
        /// Manager → owner: send a read copy to `requester`.
        FwdRead {
            page: usize,
            requester: NodeId,
        } = 2,
        /// Manager → owner: transfer ownership to `requester`, who must
        /// await `ninval` invalidation acks.
        FwdWrite {
            page: usize,
            requester: NodeId,
            ninval: u32,
        } = 3,
        /// Owner → requester: a read copy.
        PageRead {
            page: usize,
            data: Box<[u8]>,
        } = 4,
        /// Owner → requester: ownership (+ data unless the requester
        /// already holds a copy; + copyset under the dynamic scheme).
        PageOwn {
            page: usize,
            data: Option<Box<[u8]>>,
            ninval: u32,
            copyset: Option<NodeSet>,
        } = 5,
        /// Invalidate your copy; `new_owner` is the probable-owner hint.
        Inval {
            page: usize,
            new_owner: NodeId,
        } = 6,
        /// Copy invalidated (sent to the new owner / requester).
        InvalAck {
            page: usize,
        } = 7,
        /// Requester → manager: transaction complete; `owner` is the
        /// resulting owner, `write` tells the manager how to update the
        /// copyset.
        Confirm {
            page: usize,
            owner: NodeId,
            write: bool,
        } = 8,

        // ---- page migration (single copy) ----
        MigReq {
            page: usize,
        } = 9,
        MigFwd {
            page: usize,
            requester: NodeId,
        } = 10,
        MigPage {
            page: usize,
            data: Box<[u8]>,
        } = 11,
        MigConfirm {
            page: usize,
            holder: NodeId,
        } = 12,

        // ---- write-update (home-sequenced) ----
        /// Writer → home: apply and multicast this write.
        UpdWrite {
            page: usize,
            off: u32,
            data: Box<[u8]>,
        } = 13,
        /// Home → copy holder: apply this write (per-page sequenced).
        UpdApply {
            page: usize,
            off: u32,
            data: Box<[u8]>,
            seq: u64,
        } = 14,
        /// Home → writer: your write is globally ordered.
        UpdAck {
            page: usize,
        } = 15,
        /// Read miss: requester → home.
        FetchReq {
            page: usize,
        } = 16,
        /// Home → requester: current master copy. `seq` is the page's
        /// current update sequence number (write-update protocol), letting
        /// the new copy holder verify the per-page update stream stays
        /// gapless from here on.
        FetchRep {
            page: usize,
            data: Box<[u8]>,
            seq: u64,
        } = 17,

        // ---- eager release consistency (Munin write-shared) ----
        /// Writer → home: diffs for pages homed there (one flush id per
        /// release).
        DiffFlush {
            flush: u64,
            diffs: Vec<(usize, PageDiff)>,
        } = 18,
        /// Home → copy holder: apply these diffs.
        DiffApply {
            flush: u64,
            home: NodeId,
            diffs: Vec<(usize, PageDiff)>,
        } = 19,
        /// Copy holder → home: diffs applied.
        DiffApplyAck {
            flush: u64,
        } = 20,
        /// Home → writer: all copies updated for your flush.
        FlushAck {
            flush: u64,
        } = 21,

        // ---- lazy release consistency (TreadMarks) ----
        /// Fetch the diffs of the given intervals for `page` from their
        /// creator.
        LrcDiffReq {
            page: usize,
            ids: Vec<IntervalId>,
        } = 22,
        /// The diffs asked for, each shared with the creator's own copy
        /// (and any other requester's reply).
        LrcDiffRep {
            page: usize,
            diffs: Vec<(IntervalId, Arc<PageDiff>)>,
        } = 23,
        /// Fetch a full current copy (first access / no base copy). Carries
        /// the requester's GC epoch (barrier releases survived; always 0
        /// without GC): a home that has not yet seen the release the
        /// requester has must defer serving until its own release applies
        /// the epoch's buffered flushes, or it would hand out pre-epoch
        /// bytes. Modeled wire form packs page + epoch as two u32s.
        LrcPageReq {
            page: usize,
            epoch: u64,
        } = 24,
        LrcPageRep {
            page: usize,
            data: Box<[u8]>,
        } = 25,
        /// Epoch flush (interval GC): writer → home, the departing epoch's
        /// diffs for pages homed at the receiver, sent point-to-point
        /// *before* the barrier arrival so bulk data never transits the
        /// barrier root. The home buffers them unapplied — the causal
        /// application order arrives with the barrier release. The diffs
        /// are shared with the writer's own copies.
        LrcFlush {
            diffs: Vec<(IntervalId, usize, Arc<PageDiff>)>,
        } = 27,
        /// Home → writer: epoch flush received and buffered. The writer
        /// arrives at the barrier only after all its flushes are acked,
        /// which is what guarantees every home holds the epoch's diffs by
        /// release time.
        LrcFlushAck = 28,

        // ---- SC-ABD quorum replication ----
        /// Quorum query (phase 1 of both reads and writes): coordinator →
        /// replica, asking for the replica's current tag (and bytes) for
        /// `page`. `txn` matches replies to the issuing phase. A `page` of
        /// `usize::MAX` is a recovery re-sync request: the replica answers
        /// with one [`ProtoMsg::ScabdR`] per page it holds plus a
        /// `usize::MAX` terminator.
        ScabdQ {
            page: usize,
            txn: u64,
        } = 29,
        /// Quorum update (phase 2): coordinator → replica, store `data`
        /// under tag `(seq, writer)` if that tag is newer than what the
        /// replica holds. Read write-backs reuse the queried tag; writes
        /// carry `(max_seq + 1, me)`.
        ScabdU {
            page: usize,
            txn: u64,
            seq: u64,
            writer: u32,
            data: Box<[u8]>,
        } = 30,
        /// Replica → coordinator reply. With `data` it answers a
        /// [`ProtoMsg::ScabdQ`] (the replica's tag + bytes, `data` absent
        /// when the replica holds no copy); without it under a phase-2
        /// `txn` it acknowledges a [`ProtoMsg::ScabdU`].
        ScabdR {
            page: usize,
            txn: u64,
            seq: u64,
            writer: u32,
            data: Option<Box<[u8]>>,
        } = 31,

        // ---- one-sided rdma (home-based, NIC-served reads) ----
        // Numbered in a band of their own (56–59) so NIC-path traffic is
        // distinguishable from the 0–31 coherence band in reports.
        /// One-sided read doorbell: requester → home NIC, naming the pages
        /// it wants (demand page first, prefetch candidates after). On
        /// fabrics with one-sided support the home's NIC serves this
        /// without scheduling its app or protocol thread; elsewhere it
        /// arrives as an ordinary software message with identical reply
        /// logic.
        RdmaRead {
            pages: Vec<usize>,
        } = 56,
        /// Home NIC → requester: per-page payloads. `None` is a NACK — the
        /// page was checked out to a writer (or mid-invalidation) and the
        /// requester must fall back to a two-sided [`ProtoMsg::ReadReq`].
        RdmaData {
            pages: Vec<(usize, Option<Box<[u8]>>)>,
        } = 57,
        /// Home → checked-out writer: write the master back and serve
        /// `requester` directly (issued before any read service or write
        /// grant). The writer ships the page straight to the requester — a
        /// read copy ([`ProtoMsg::RdmaData`]) or ownership
        /// ([`ProtoMsg::PageOwn`]) per `write` — while the writeback
        /// travels to the home concurrently, removing the extra home hop
        /// per contended handoff. A `requester` equal to the home itself
        /// marks the legacy writeback-only recall (the home's own parked
        /// op wants the page).
        RdmaRecall {
            page: usize,
            requester: NodeId,
            write: bool,
        } = 58,
        /// Writer → home: the recalled page's current bytes.
        RdmaWriteBack {
            page: usize,
            data: Box<[u8]>,
        } = 59,

        // ---- object-granularity sharing (`obj` protocol) ----
        // Numbered 60–62 so E22 can separate object traffic from page
        // coherence.
        /// Requester → object home: fetch `obj`; with `write`, take over
        /// ownership (the single writable copy).
        ObjReq {
            obj: u32,
            write: bool,
        } = 60,
        /// Home → presumed owner: serve `requester` directly. A node that
        /// neither holds the object nor is about to own it bounces the
        /// forward back to the home, which re-routes along the current
        /// ownership chain.
        ObjFwd {
            obj: u32,
            requester: NodeId,
            write: bool,
        } = 61,
        /// Owner → requester: the object's bytes. With `write` this *is*
        /// the ownership transfer — the sender forgets the object and
        /// exactly one message moves exactly one object, no page
        /// invalidation. Without it the bytes are a read-only replica the
        /// receiver drops at its next synchronization entry.
        ObjData {
            obj: u32,
            data: Box<[u8]>,
            write: bool,
        } = 62,

        // ---- multi-page envelope ----
        /// Several coherence messages for the same destination in one
        /// network message (batched fault pipeline). The envelope pays one
        /// per-message software overhead + header where its contents would
        /// have paid N; its body is priced as the sum of the inner bodies.
        /// Only ever built with ≥ 2 inner messages — single messages travel
        /// bare, so depth-1 runs are byte-identical to unbatched ones.
        Batch(Vec<ProtoMsg>) = 26,
    }
}

impl Payload for ProtoMsg {
    fn wire_bytes(&self) -> usize {
        use ProtoMsg::*;
        match self {
            ReadReq { .. }
            | WriteReq { .. }
            | MigReq { .. }
            | FetchReq { .. }
            | LrcPageReq { .. } => 8,
            FwdRead { .. } | MigFwd { .. } => 12,
            FwdWrite { .. } => 16,
            PageRead { data, .. } | MigPage { data, .. } | LrcPageRep { data, .. } => {
                8 + data.len()
            }
            FetchRep { data, .. } => 16 + data.len(),
            PageOwn { data, copyset, .. } => {
                16 + data.as_ref().map_or(0, |d| d.len())
                    + copyset.as_ref().map_or(0, |c| 8 + c.len() * 4)
            }
            Inval { .. } => 12,
            InvalAck { .. } | UpdAck { .. } | MigConfirm { .. } => 8,
            Confirm { .. } => 13,
            UpdWrite { data, .. } => 16 + data.len(),
            UpdApply { data, .. } => 24 + data.len(),
            DiffFlush { diffs, .. } | DiffApply { diffs, .. } => {
                8 + diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
            }
            DiffApplyAck { .. } | FlushAck { .. } => 8,
            LrcDiffReq { ids, .. } => 8 + ids.len() * 8,
            LrcDiffRep { diffs, .. } => {
                8 + diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
            }
            LrcFlush { diffs } => {
                8 + diffs
                    .iter()
                    .map(|(_, _, d)| 12 + d.wire_bytes())
                    .sum::<usize>()
            }
            LrcFlushAck => 8,
            ScabdQ { .. } => 16,
            ScabdU { data, .. } => 28 + data.len(),
            ScabdR { data, .. } => 28 + data.as_ref().map_or(0, |d| d.len()),
            RdmaRead { pages } => 8 + pages.len() * 8,
            RdmaData { pages } => {
                8 + pages
                    .iter()
                    .map(|(_, d)| 12 + d.as_ref().map_or(0, |b| b.len()))
                    .sum::<usize>()
            }
            RdmaRecall { .. } => 13,
            RdmaWriteBack { data, .. } => 8 + data.len(),
            ObjReq { .. } => 8,
            ObjFwd { .. } => 13,
            ObjData { data, .. } => 9 + data.len(),
            Batch(msgs) => msgs.iter().map(|m| m.wire_bytes()).sum(),
        }
    }

    fn kind(&self) -> &'static str {
        self.variant()
    }

    fn kind_id(&self) -> KindId {
        KindId(self.tag())
    }
}

/// Entry-consistency per-lock update log: `(version, changes)`
/// entries, each change a guarded-region index plus a byte-run diff
/// relative to the region start.
pub type EntryUpdateLog = Vec<(u64, Vec<(u32, PageDiff)>)>;

wire_enum! {
    /// Consistency payload piggybacked on synchronization messages.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Piggy {
        /// No consistency information.
        None = 0,
        /// Acquirer's vector clock, delta-encoded against its barrier
        /// floor (LRC lock requests — lets the granter send only the
        /// missing intervals).
        LrcClock(VClockDelta) = 1,
        /// Interval records the receiver is missing (LRC grants, barrier
        /// payloads), clocks delta-encoded against the sender's floor.
        LrcIntervals(Vec<WireIntervalRecord>) = 2,
        /// LRC barrier arrival: the arriver's clock plus the records it
        /// authored since the last barrier. Without GC the root computes
        /// each node's missing set from these; with GC it additionally
        /// derives the epoch's causal diff order (the diff *bytes* traveled
        /// point-to-point to their homes as [`ProtoMsg::LrcFlush`] before
        /// this arrival — the barrier carries metadata only).
        LrcBarrier {
            vt: VClockDelta,
            records: Vec<WireIntervalRecord>,
        } = 3,
        /// LRC barrier release with interval GC: the global clock (the new
        /// fleet-wide floor), the causally-ordered interval-id lists for
        /// pages the receiver homes (the home substitutes each id's diff
        /// from its own retained cache or its buffered epoch flushes — no
        /// bytes travel here), and compacted per-page invalidation notices
        /// (one entry per page written this epoch, not one per interval)
        /// for stale copies the receiver must drop: `stale` of them, priced
        /// as a private list. In memory they are the epoch's written set —
        /// `(page, home, sole writer)` ascending by page, one allocation
        /// shared by the episode's releases — of which a receiver's copy is
        /// stale unless it is the page's home or its sole writer.
        LrcEpoch {
            vt: VClockDelta,
            homed: Vec<(usize, Vec<IntervalId>)>,
            written: Arc<[(usize, NodeId, Option<NodeId>)]>,
            stale: u32,
        } = 4,
        /// Entry-consistency lock request info: the highest update version
        /// the acquirer has applied for this lock's regions.
        EntryVer(u64) = 5,
        /// Entry-consistency grant: the guarded regions' update log entries
        /// the acquirer is missing. Each entry is (version, changes), each
        /// change a region index + byte-run diff relative to the region
        /// start — only dirty data travels, as in Midway.
        EntryLog(EntryUpdateLog) = 6,
        /// Entry-consistency barrier arrival: page diffs of everything this
        /// node wrote (outside guarded regions) since the last barrier,
        /// plus, per lock, its current version and the log entries created
        /// since the last barrier — barriers synchronize guarded data too.
        EntryArrive {
            diffs: Vec<(usize, PageDiff)>,
            locks: Vec<(u32, u64, EntryUpdateLog)>,
        } = 7,
        /// Entry-consistency barrier release: merged images of every page
        /// dirtied across the barrier, plus per-lock log entries the
        /// receiver is missing.
        EntryRelease {
            pages: Vec<(usize, Box<[u8]>)>,
            locks: Vec<(u32, EntryUpdateLog)>,
        } = 8,
        /// Object-granularity wrapper around the page-level piggy: `ver` is
        /// the sender's object-update version for the lock (on requests,
        /// the acquirer's applied version), `objs` the latest images of
        /// objects dirtied under the lock at versions the receiver lacks
        /// (`(object id, version, image)`), and `inner` the embedded
        /// entry-consistency payload for page-level data.
        Obj {
            ver: u64,
            objs: Vec<(u32, u64, Box<[u8]>)>,
            inner: Box<Piggy>,
        } = 9,
    }
}

impl SyncPiggy for Piggy {
    fn empty() -> Self {
        Piggy::None
    }

    fn wire_bytes(&self) -> usize {
        match self {
            Piggy::None => 0,
            Piggy::LrcClock(vc) => vc.wire_bytes(),
            Piggy::LrcIntervals(recs) => recs.iter().map(|r| r.wire_bytes()).sum::<usize>(),
            Piggy::LrcBarrier { vt, records } => {
                vt.wire_bytes() + records.iter().map(|r| r.wire_bytes()).sum::<usize>()
            }
            Piggy::LrcEpoch {
                vt, homed, stale, ..
            } => {
                vt.wire_bytes()
                    + homed
                        .iter()
                        .map(|(_, ids)| 8 + ids.len() * 8)
                        .sum::<usize>()
                    + *stale as usize * 4
            }
            Piggy::EntryVer(_) => 8,
            Piggy::EntryLog(entries) => entries
                .iter()
                .map(|(_, changes)| {
                    12 + changes
                        .iter()
                        .map(|(_, d)| 8 + d.wire_bytes())
                        .sum::<usize>()
                })
                .sum::<usize>(),
            Piggy::EntryArrive { diffs, locks } => {
                diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
                    + locks
                        .iter()
                        .map(|(_, _, es)| {
                            16 + es
                                .iter()
                                .map(|(_, ch)| {
                                    12 + ch.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
                                })
                                .sum::<usize>()
                        })
                        .sum::<usize>()
            }
            Piggy::EntryRelease { pages, locks } => {
                pages.iter().map(|(_, b)| 8 + b.len()).sum::<usize>()
                    + locks
                        .iter()
                        .map(|(_, es)| {
                            8 + es
                                .iter()
                                .map(|(_, ch)| {
                                    12 + ch.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
                                })
                                .sum::<usize>()
                        })
                        .sum::<usize>()
            }
            Piggy::Obj { objs, inner, .. } => {
                8 + objs.iter().map(|(_, _, b)| 12 + b.len()).sum::<usize>()
                    + SyncPiggy::wire_bytes(inner.as_ref())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_messages_cost_their_payload() {
        let m = ProtoMsg::PageRead {
            page: 1,
            data: vec![0u8; 4096].into_boxed_slice(),
        };
        assert_eq!(m.wire_bytes(), 8 + 4096);
        assert_eq!(m.kind(), "PageRead");
    }

    #[test]
    fn piggy_sizes() {
        assert_eq!(Piggy::None.wire_bytes(), 0);
        assert_eq!(Piggy::EntryVer(3).wire_bytes(), 8);
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        let d = PageDiff::create(&twin, &cur);
        let dw = d.wire_bytes();
        let p = Piggy::EntryLog(vec![(1, vec![(0, d)])]);
        assert_eq!(p.wire_bytes(), 12 + 8 + dw);
        // Delta clocks cost a fixed tag plus 8 bytes per changed
        // component, independent of N.
        let mut vc = dsm_mem::VClock::new(64);
        vc.set(3, 7);
        vc.set(41, 2);
        let d = VClockDelta::dense(&Arc::new(vc));
        assert_eq!(Piggy::LrcClock(d).wire_bytes(), 8 + 16);
    }

    #[test]
    fn batch_costs_sum_of_inner_bodies() {
        let m = ProtoMsg::Batch(vec![
            ProtoMsg::ReadReq { page: 1 },
            ProtoMsg::ReadReq { page: 2 },
            ProtoMsg::Inval {
                page: 3,
                new_owner: NodeId(0),
            },
        ]);
        assert_eq!(m.wire_bytes(), 8 + 8 + 12);
        assert_eq!(m.kind(), "Batch");
        assert_eq!(m.kind_id(), KindId(26));
    }

    #[test]
    fn rdma_messages_cost_doorbell_plus_payload() {
        let m = ProtoMsg::RdmaRead { pages: vec![1, 2] };
        assert_eq!(m.wire_bytes(), 8 + 16);
        assert_eq!(m.kind_id(), KindId(56));
        let m = ProtoMsg::RdmaData {
            pages: vec![(1, Some(vec![0u8; 4096].into_boxed_slice())), (2, None)],
        };
        // A served page costs its bytes; a NACK costs only the entry.
        assert_eq!(m.wire_bytes(), 8 + (12 + 4096) + 12);
        assert_eq!(m.kind(), "RdmaData");
    }

    #[test]
    fn obj_messages_cost_header_plus_payload() {
        assert_eq!(
            ProtoMsg::ObjReq {
                obj: 3,
                write: true
            }
            .wire_bytes(),
            8
        );
        assert_eq!(
            ProtoMsg::ObjFwd {
                obj: 3,
                requester: NodeId(1),
                write: false,
            }
            .wire_bytes(),
            13
        );
        let m = ProtoMsg::ObjData {
            obj: 3,
            data: vec![0u8; 64].into_boxed_slice(),
            write: true,
        };
        assert_eq!(m.wire_bytes(), 9 + 64);
        assert_eq!(m.kind_id(), KindId(62));
        // A recall names its page, the forwarded requester, and the
        // write intent.
        let m = ProtoMsg::RdmaRecall {
            page: 5,
            requester: NodeId(2),
            write: true,
        };
        assert_eq!(m.wire_bytes(), 13);
        // The obj piggy costs its version + images + the wrapped inner
        // payload.
        let p = Piggy::Obj {
            ver: 4,
            objs: vec![(9, 4, vec![0u8; 16].into_boxed_slice())],
            inner: Box::new(Piggy::EntryVer(3)),
        };
        assert_eq!(SyncPiggy::wire_bytes(&p), 8 + (12 + 16) + 8);
    }

    #[test]
    fn diff_messages_cost_encoded_size() {
        let twin = vec![0u8; 128];
        let mut cur = twin.clone();
        cur[0] = 1;
        let d = PageDiff::create(&twin, &cur);
        let wire = d.wire_bytes();
        let m = ProtoMsg::DiffFlush {
            flush: 1,
            diffs: vec![(0, d)],
        };
        assert_eq!(m.wire_bytes(), 8 + 8 + wire);
    }
}
