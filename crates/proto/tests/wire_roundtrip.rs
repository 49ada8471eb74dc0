//! Wire-format round trips for every message the cluster transport
//! (de)serializes over real UDP: each variant of [`ProtoMsg`],
//! [`Piggy`], [`SyncMsg`], [`CoreMsg`] and [`RelMsg`] must survive
//! encode → decode bit-exactly, and decode must consume exactly the
//! bytes encode produced (messages travel concatenated inside batch
//! envelopes and reliable-transport frames). Coverage is held to the
//! message tables themselves (`TAGS`), not to a hand count; malformed
//! input — truncated, bit-flipped, or nested without end — must decode
//! to `None`, never panic, and whatever does decode must be safe to
//! *use*: every clock expands and joins, every list walks ([`Used`]).

use dsm_core::CoreMsg;
use dsm_mem::{
    FrameTable, GlobalAddr, IntervalId, IntervalRecord, NodeSet, PageDiff, PageGeometry, PageId,
    Placement, SpaceLayout, VClock, VClockDelta, WireIntervalRecord,
};
use dsm_net::{
    from_wire_bytes, to_wire_bytes, CostModel, KindId, NodeId, Payload, RelMsg, Wire, WireReader,
    XorShift64, MAX_KINDS,
};
use dsm_proto::{Erc, Lrc, Piggy, ProtoEvent, ProtoIo, ProtoMsg, Protocol};
use dsm_sync::{SyncEnvelope, SyncMsg, SyncPiggy};
use std::fmt::Debug;
use std::sync::Arc;

fn round_trip<T: Wire + PartialEq + Debug>(v: &T) {
    let mut bytes = Vec::new();
    v.encode(&mut bytes);
    // Decode must consume exactly what encode produced, even with
    // trailing bytes present (concatenated streams).
    bytes.extend_from_slice(&[0xAB, 0xCD]);
    let mut r = WireReader::new(&bytes);
    let back = T::decode(&mut r).expect("decodes");
    assert_eq!(&back, v);
    assert_eq!(r.remaining(), 2, "wrong number of bytes consumed");
}

fn diff() -> PageDiff {
    let twin = vec![0u8; 64];
    let mut cur = twin.clone();
    cur[3] = 7;
    cur[40] = 9;
    cur[41] = 1;
    PageDiff::create(&twin, &cur)
}

fn shared_diff() -> Arc<PageDiff> {
    Arc::new(diff())
}

fn page() -> Box<[u8]> {
    (0..64u8).collect::<Vec<u8>>().into_boxed_slice()
}

fn rec() -> WireIntervalRecord {
    let mut vc = VClock::new(4);
    vc.set(1, 5);
    vc.set(3, 2);
    WireIntervalRecord::against(
        &IntervalRecord {
            id: IntervalId::new(NodeId(1), 5),
            vc: Arc::new(vc),
            pages: vec![PageId(0), PageId(9)].into(),
        },
        &Arc::new(VClock::new(4)),
    )
}

fn delta() -> VClockDelta {
    let mut vc = VClock::new(3);
    vc.set(0, 2);
    vc.set(2, 8);
    VClockDelta::against(&Arc::new(vc), &Arc::new(VClock::new(3)))
}

/// Every `ProtoMsg` variant, with representative payloads (including `None`/empty cases where the encoding has an
/// option or length discriminant).
fn all_proto_msgs() -> Vec<ProtoMsg> {
    use ProtoMsg::*;
    let mut set = NodeSet::new();
    set.insert(NodeId(0));
    set.insert(NodeId(3));
    vec![
        ReadReq { page: 7 },
        WriteReq {
            page: usize::MAX >> 1,
        },
        FwdRead {
            page: 1,
            requester: NodeId(2),
        },
        FwdWrite {
            page: 1,
            requester: NodeId(2),
            ninval: 3,
        },
        PageRead {
            page: 4,
            data: page(),
        },
        PageOwn {
            page: 4,
            data: Some(page()),
            ninval: 2,
            copyset: Some(set),
        },
        PageOwn {
            page: 4,
            data: None,
            ninval: 0,
            copyset: None,
        },
        Inval {
            page: 5,
            new_owner: NodeId(1),
        },
        InvalAck { page: 5 },
        Confirm {
            page: 5,
            owner: NodeId(3),
            write: true,
        },
        MigReq { page: 6 },
        MigFwd {
            page: 6,
            requester: NodeId(0),
        },
        MigPage {
            page: 6,
            data: page(),
        },
        MigConfirm {
            page: 6,
            holder: NodeId(2),
        },
        UpdWrite {
            page: 8,
            off: 16,
            data: page(),
        },
        UpdApply {
            page: 8,
            off: 16,
            data: page(),
            seq: 99,
        },
        UpdAck { page: 8 },
        FetchReq { page: 9 },
        FetchRep {
            page: 9,
            data: page(),
            seq: 7,
        },
        DiffFlush {
            flush: 11,
            diffs: vec![(0, diff()), (2, diff())],
        },
        DiffApply {
            flush: 11,
            home: NodeId(1),
            diffs: vec![(0, diff())],
        },
        DiffApplyAck { flush: 11 },
        FlushAck { flush: 11 },
        LrcDiffReq {
            page: 3,
            ids: vec![IntervalId::new(NodeId(0), 1)],
        },
        LrcDiffRep {
            page: 3,
            diffs: vec![(IntervalId::new(NodeId(0), 1), shared_diff())],
        },
        LrcPageReq { page: 3, epoch: 2 },
        LrcPageRep {
            page: 3,
            data: page(),
        },
        LrcFlush {
            diffs: vec![(IntervalId::new(NodeId(2), 4), 3, shared_diff())],
        },
        LrcFlushAck,
        ScabdQ { page: 12, txn: 34 },
        ScabdU {
            page: 12,
            txn: 34,
            seq: 5,
            writer: 1,
            data: page(),
        },
        ScabdR {
            page: 12,
            txn: 34,
            seq: 5,
            writer: 1,
            data: Some(page()),
        },
        ScabdR {
            page: 12,
            txn: 35,
            seq: 5,
            writer: 1,
            data: None,
        },
        RdmaRead {
            pages: vec![1, 2, 3],
        },
        RdmaData {
            pages: vec![(1, Some(page())), (2, None)],
        },
        RdmaRecall {
            page: 13,
            requester: NodeId(2),
            write: true,
        },
        RdmaWriteBack {
            page: 13,
            data: page(),
        },
        ObjReq {
            obj: 14,
            write: true,
        },
        ObjFwd {
            obj: 14,
            requester: NodeId(1),
            write: false,
        },
        ObjData {
            obj: 14,
            data: page(),
            write: true,
        },
        Batch(vec![ReadReq { page: 1 }, InvalAck { page: 2 }]),
    ]
}

/// Every `Piggy` variant.
fn all_piggies() -> Vec<Piggy> {
    vec![
        Piggy::None,
        Piggy::LrcClock(delta()),
        Piggy::LrcIntervals(vec![rec(), rec()]),
        Piggy::LrcBarrier {
            vt: delta(),
            records: vec![rec()],
        },
        Piggy::LrcEpoch {
            vt: delta(),
            homed: vec![(4, vec![IntervalId::new(NodeId(1), 2)]), (5, vec![])],
            written: vec![
                (4, NodeId(0), Some(NodeId(2))),
                (5, NodeId(1), None),
                (9, NodeId(1), Some(NodeId(1))),
            ]
            .into(),
            stale: 2,
        },
        Piggy::EntryVer(17),
        Piggy::EntryLog(vec![(3, vec![(0, diff()), (1, diff())]), (4, vec![])]),
        Piggy::EntryArrive {
            diffs: vec![(2, diff())],
            locks: vec![(1, 3, vec![(3, vec![(0, diff())])])],
        },
        Piggy::EntryRelease {
            pages: vec![(2, page())],
            locks: vec![(1, vec![(3, vec![(0, diff())])])],
        },
        Piggy::Obj {
            ver: 7,
            objs: vec![(4, 6, page()), (5, 7, page())],
            inner: Box::new(Piggy::EntryVer(3)),
        },
    ]
}

/// Every `SyncMsg` variant, over the real piggyback type.
fn all_sync_msgs() -> Vec<SyncMsg<Piggy>> {
    let envelopes = || {
        vec![
            SyncEnvelope::new(NodeId(0), Piggy::None),
            SyncEnvelope::new(NodeId(2), Piggy::LrcIntervals(vec![rec()])),
        ]
    };
    vec![
        SyncMsg::LockReq {
            lock: 3,
            requester: NodeId(1),
            reqinfo: Piggy::LrcClock(delta()),
        },
        SyncMsg::LockFwd {
            lock: 3,
            requester: NodeId(1),
            reqinfo: Piggy::EntryVer(4),
        },
        // Inside a `RelMsg` this is the deepest nesting real traffic
        // produces (frame → core → sync → obj piggy → inner piggy): the
        // reader's nesting budget must admit it.
        SyncMsg::LockGrant {
            lock: 3,
            piggy: Piggy::Obj {
                ver: 7,
                objs: vec![(4, 6, page())],
                inner: Box::new(Piggy::EntryLog(vec![(3, vec![(0, diff())])])),
            },
        },
        SyncMsg::LockRel {
            lock: 3,
            piggy: Piggy::None,
        },
        SyncMsg::BarArrive {
            id: 1,
            contributions: envelopes(),
        },
        SyncMsg::BarRelease {
            id: 1,
            releases: envelopes(),
        },
    ]
}

/// Both `CoreMsg` layers, over every inner sample.
fn all_core_msgs() -> Vec<CoreMsg> {
    let proto = all_proto_msgs().into_iter().map(CoreMsg::Proto);
    let sync = all_sync_msgs().into_iter().map(CoreMsg::Sync);
    proto.chain(sync).collect()
}

/// Both `RelMsg` frames: every `CoreMsg` sample sequenced, plus a
/// standalone ack.
fn all_rel_msgs() -> Vec<RelMsg<CoreMsg>> {
    let mut out: Vec<_> = all_core_msgs()
        .into_iter()
        .zip(1..)
        .map(|(payload, seq)| RelMsg::Data {
            seq,
            ack: seq - 1,
            sack: 0b101,
            epoch: 2,
            ack_epoch: 1,
            payload,
        })
        .collect();
    out.push(RelMsg::Ack {
        ack: 9,
        sack: u64::MAX,
        ack_epoch: 3,
    });
    out
}

/// The samples hit every number in the message's table — and only
/// those, each table listing a number once.
fn assert_covers(name: &str, tags: &[u8], seen: impl Iterator<Item = u8>) {
    let mut seen: Vec<u8> = seen.collect();
    seen.sort_unstable();
    seen.dedup();
    let mut want = tags.to_vec();
    want.sort_unstable();
    assert!(
        want.windows(2).all(|w| w[0] != w[1]),
        "{name}: a number is used twice"
    );
    assert_eq!(seen, want, "{name}: samples and table disagree");
}

#[test]
fn samples_cover_every_table_entry() {
    assert_covers(
        "ProtoMsg",
        ProtoMsg::TAGS,
        all_proto_msgs().iter().map(ProtoMsg::tag),
    );
    assert_covers("Piggy", Piggy::TAGS, all_piggies().iter().map(Piggy::tag));
    assert_covers(
        "SyncMsg",
        SyncMsg::<Piggy>::TAGS,
        all_sync_msgs().iter().map(SyncMsg::tag),
    );
    assert_covers(
        "CoreMsg",
        CoreMsg::TAGS,
        all_core_msgs().iter().map(CoreMsg::tag),
    );
    assert_covers(
        "RelMsg",
        RelMsg::<CoreMsg>::TAGS,
        all_rel_msgs().iter().map(RelMsg::tag),
    );
}

#[test]
fn every_message_round_trips() {
    all_proto_msgs().iter().for_each(round_trip);
    all_piggies().iter().for_each(round_trip);
    all_sync_msgs().iter().for_each(round_trip);
    all_core_msgs().iter().for_each(round_trip);
    all_rel_msgs().iter().for_each(round_trip);
}

/// The statistics numbering, pinned: `NetStats` tables, report strings
/// and every recorded benchmark are keyed by these.
#[test]
fn kind_ids_are_pinned_and_disjoint() {
    const PROTO: [(&str, u8); 39] = [
        ("ReadReq", 0),
        ("WriteReq", 1),
        ("FwdRead", 2),
        ("FwdWrite", 3),
        ("PageRead", 4),
        ("PageOwn", 5),
        ("Inval", 6),
        ("InvalAck", 7),
        ("Confirm", 8),
        ("MigReq", 9),
        ("MigFwd", 10),
        ("MigPage", 11),
        ("MigConfirm", 12),
        ("UpdWrite", 13),
        ("UpdApply", 14),
        ("UpdAck", 15),
        ("FetchReq", 16),
        ("FetchRep", 17),
        ("DiffFlush", 18),
        ("DiffApply", 19),
        ("DiffApplyAck", 20),
        ("FlushAck", 21),
        ("LrcDiffReq", 22),
        ("LrcDiffRep", 23),
        ("LrcPageReq", 24),
        ("LrcPageRep", 25),
        ("Batch", 26),
        ("LrcFlush", 27),
        ("LrcFlushAck", 28),
        ("ScabdQ", 29),
        ("ScabdU", 30),
        ("ScabdR", 31),
        ("RdmaRead", 56),
        ("RdmaData", 57),
        ("RdmaRecall", 58),
        ("RdmaWriteBack", 59),
        ("ObjReq", 60),
        ("ObjFwd", 61),
        ("ObjData", 62),
    ];
    const SYNC: [(&str, u8); 6] = [
        ("LockReq", 32),
        ("LockFwd", 33),
        ("LockGrant", 34),
        ("LockRel", 35),
        ("BarArrive", 36),
        ("BarRelease", 37),
    ];
    fn kinds<M: Payload>(msgs: &[M]) -> Vec<(&'static str, u8)> {
        let mut ids: Vec<_> = msgs.iter().map(|m| (m.kind(), m.kind_id().0)).collect();
        ids.sort_unstable_by_key(|&(_, id)| id);
        ids.dedup();
        ids
    }
    assert_eq!(kinds(&all_proto_msgs()), PROTO);
    assert_eq!(kinds(&all_sync_msgs()), SYNC);

    // The reliable transport keeps inner kinds on data frames and adds
    // one of its own; nothing collides and everything fits the table.
    let ack = RelMsg::<CoreMsg>::Ack {
        ack: 0,
        sack: 0,
        ack_epoch: 0,
    };
    assert_eq!((ack.kind(), ack.kind_id()), ("RelAck", KindId(48)));
    let mut all: Vec<u8> = ProtoMsg::TAGS.to_vec();
    all.extend(SyncMsg::<Piggy>::TAGS);
    all.push(48);
    assert!(all.iter().all(|&id| usize::from(id) < MAX_KINDS));
    all.sort_unstable();
    assert!(all.windows(2).all(|w| w[0] != w[1]), "a stat id is shared");
}

fn truncations_decode_to_none<T: Wire + Debug + Used>(samples: &[T]) {
    for m in samples {
        m.used();
        let bytes = to_wire_bytes(m);
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(
                T::decode(&mut r).is_none(),
                "decoded from a {cut}-byte prefix of {m:?}"
            );
        }
    }
}

#[test]
fn truncated_and_garbage_input_decode_to_none() {
    truncations_decode_to_none(&all_proto_msgs());
    truncations_decode_to_none(&all_piggies());
    truncations_decode_to_none(&all_sync_msgs());
    truncations_decode_to_none(&all_core_msgs());
    truncations_decode_to_none(&all_rel_msgs());
    let garbage = [0xFF, 0xFF, 0xFF, 0xFF];
    assert!(
        from_wire_bytes::<ProtoMsg>(&garbage).is_none(),
        "unknown tag decoded"
    );
}

/// What a receiver does with a decoded message before any protocol
/// state is consulted: price it (which walks every list it carries),
/// materialise and join every vector clock, look pages up in the
/// epoch's written set. A decoder that lets through a value on which
/// any of this panics has not dropped the malformed datagram.
trait Used {
    fn used(&self);
}

fn use_clock(vt: &VClockDelta) {
    let full = vt.clock();
    let mut joined = VClock::new(full.len());
    vt.join_into(&mut joined);
    assert_eq!(joined, **full, "joining into zero is the clock");
    assert_eq!(to_wire_bytes(vt).len(), 8 + 4 * full.len() + 8 * vt.len());
}

impl Used for Piggy {
    fn used(&self) {
        let _ = SyncPiggy::wire_bytes(self);
        match self {
            Piggy::LrcClock(vt) => use_clock(vt),
            Piggy::LrcIntervals(records) => records.iter().for_each(|r| use_clock(&r.vc)),
            Piggy::LrcBarrier { vt, records } => {
                use_clock(vt);
                records.iter().for_each(|r| use_clock(&r.vc));
            }
            Piggy::LrcEpoch {
                vt, homed, written, ..
            } => {
                use_clock(vt);
                let ids = homed.iter().flat_map(|(_, ids)| ids);
                let seqs = ids.fold(0u32, |sum, id| sum.wrapping_add(id.seq));
                let found = written
                    .iter()
                    .filter(|w| written.binary_search_by_key(&w.0, |o| o.0).is_ok())
                    .count();
                std::hint::black_box((seqs, found));
            }
            Piggy::Obj { inner, .. } => inner.used(),
            _ => {}
        }
    }
}

impl Used for ProtoMsg {
    fn used(&self) {
        let _ = Payload::wire_bytes(self);
    }
}

impl Used for SyncMsg<Piggy> {
    fn used(&self) {
        let _ = Payload::wire_bytes(self);
        match self {
            SyncMsg::LockReq { reqinfo: p, .. }
            | SyncMsg::LockFwd { reqinfo: p, .. }
            | SyncMsg::LockGrant { piggy: p, .. }
            | SyncMsg::LockRel { piggy: p, .. } => p.used(),
            SyncMsg::BarArrive {
                contributions: envelopes,
                ..
            }
            | SyncMsg::BarRelease {
                releases: envelopes,
                ..
            } => envelopes.iter().for_each(|e| e.payload.used()),
        }
    }
}

impl Used for CoreMsg {
    fn used(&self) {
        match self {
            CoreMsg::Proto(m) => m.used(),
            CoreMsg::Sync(m) => m.used(),
        }
    }
}

impl Used for RelMsg<CoreMsg> {
    fn used(&self) {
        if let RelMsg::Data { payload, .. } = self {
            payload.used();
        }
    }
}

/// 1–4 random bit flips, 2 000 times per sample: whatever comes out is
/// `None` or a value that can be used — decoding a corrupt datagram
/// never panics, never over-allocates, never overflows the stack, and
/// never hands on a clock or list that panics its reader.
fn bit_flips_never_panic<T: Wire + Used>(samples: &[T], rng: &mut XorShift64) {
    for m in samples {
        let clean = to_wire_bytes(m);
        for _ in 0..2_000 {
            let mut bytes = clean.clone();
            for _ in 0..=rng.below(4) {
                let bit = rng.below(bytes.len() as u64 * 8) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            if let Some(decoded) = from_wire_bytes::<T>(&bytes) {
                decoded.used();
            }
        }
    }
}

#[test]
fn bit_flipped_input_never_panics() {
    let mut rng = XorShift64::new(0x5EED_F11B);
    bit_flips_never_panic(&all_proto_msgs(), &mut rng);
    bit_flips_never_panic(&all_piggies(), &mut rng);
    bit_flips_never_panic(&all_sync_msgs(), &mut rng);
    bit_flips_never_panic(&all_core_msgs(), &mut rng);
    bit_flips_never_panic(&all_rel_msgs(), &mut rng);
}

/// A clock entry naming a component its base does not have used to
/// decode and then index out of bounds in `expand()`: under each piggy
/// that carries a clock, such a datagram is now refused.
#[test]
fn clock_entries_outside_the_base_are_refused() {
    // A piggy's tag, a three-component base, one entry, then whatever
    // (empty) lists follow the clock in that variant.
    let datagram = |tag: u8, index: u32, rest: usize| {
        let mut bytes = vec![tag];
        VClock::new(3).encode(&mut bytes);
        vec![(index, 7u32)].encode(&mut bytes);
        bytes.extend(std::iter::repeat_n(0, rest));
        bytes
    };
    let barrier = Piggy::LrcBarrier {
        vt: delta(),
        records: vec![],
    };
    let epoch = Piggy::LrcEpoch {
        vt: delta(),
        homed: vec![],
        written: vec![].into(),
        stale: 0,
    };
    for (carrier, rest) in [(Piggy::LrcClock(delta()), 0), (barrier, 4), (epoch, 12)] {
        let inside = from_wire_bytes::<Piggy>(&datagram(carrier.tag(), 2, rest));
        inside.expect("component 2 of 3").used();
        for index in [3, 4, u32::MAX] {
            assert!(
                from_wire_bytes::<Piggy>(&datagram(carrier.tag(), index, rest)).is_none(),
                "{} with an entry for component {index} of 3",
                carrier.variant()
            );
        }
    }
}

// The crate's one fake `ProtoIo`, by path as in `protocol_units.rs`.
#[path = "../src/fake_io.rs"]
mod fake_io;

/// One node of a two-node fleet over four 64-byte pages (page 0 homed
/// at node 0), driven by hand.
struct Node<P> {
    proto: P,
    mem: FrameTable,
    io: fake_io::FakeIo,
    events: Vec<ProtoEvent>,
}

const PAGE: usize = 64;

impl<P: Protocol> Node<P> {
    fn new(me: u32, new: fn(NodeId, SpaceLayout) -> P) -> Self {
        let geometry = PageGeometry::new(PAGE);
        let layout = SpaceLayout::new(geometry, 4 * PAGE, Placement::Cyclic, 2);
        let mut node = Node {
            proto: new(NodeId(me), layout),
            mem: FrameTable::new(geometry),
            io: fake_io::FakeIo::new(CostModel::lan_1992()),
            events: Vec::new(),
        };
        node.proto.on_start(&mut node.io, &mut node.mem);
        node
    }

    /// Hand this node `msg` as `from`'s, and return what it sent back.
    fn deliver(&mut self, from: u32, msg: ProtoMsg) -> Vec<ProtoMsg> {
        let (io, mem) = (&mut self.io, &mut self.mem);
        self.proto
            .on_message(io, mem, NodeId(from), msg, &mut self.events);
        self.io.sent.drain(..).map(|(_, msg)| msg).collect()
    }

    fn byte0(&self, page: usize) -> Option<u8> {
        self.mem.page_bytes(PageId(page)).map(|bytes| bytes[0])
    }
}

/// Node 1 faults page 0 writable, its home (node 0) serving it, and
/// stores `byte` at its start.
fn write_page0<P: Protocol>(home: &mut Node<P>, writer: &mut Node<P>, byte: u8) {
    if !writer
        .proto
        .write_fault(&mut writer.io, &mut writer.mem, PageId(0))
    {
        let req = writer.io.sent.pop().expect("a page request").1;
        let rep = home.deliver(1, req).pop().expect("the page");
        writer.deliver(0, rep);
    }
    writer.mem.page_bytes_mut(PageId(0)).expect("faulted in")[0] = byte;
}

/// `msg` as it would decode from a datagram whose last diff run — one
/// byte, the store above, which ends the encoding — claims `offset`.
fn with_run_at(msg: &ProtoMsg, offset: u32) -> ProtoMsg {
    let mut bytes = to_wire_bytes(msg);
    let run = bytes.len() - 13; // runs: u32 = 1, offset: u32, len: u32 = 1, the byte
    assert_eq!(bytes[run..run + 4], 1u32.to_le_bytes());
    assert_eq!(bytes[run + 4..run + 12], [0, 0, 0, 0, 1, 0, 0, 0]);
    bytes[run + 4..run + 8].copy_from_slice(&offset.to_le_bytes());
    from_wire_bytes(&bytes).expect("`decode` cannot know the page size")
}

/// The three messages that carry diffs between cluster-capable nodes,
/// each with a run at `offset`: the receiver must drop it — no panic,
/// no byte stored, no ack, nothing resumed — and still take the real one.
fn a_diff_outside_the_page_is_dropped(offset: u32) {
    // `LrcDiffRep`: node 1 writes page 0 under lock 1, node 0 acquires
    // the lock after it and faults on the write notice.
    let (mut a, mut b) = (Node::new(0, Lrc::new), Node::new(1, Lrc::new));
    write_page0(&mut a, &mut b, 7);
    assert!(b.proto.pre_release(&mut b.io, &mut b.mem, Some(1)));
    let req = a.proto.acquire_reqinfo(&mut a.mem, 1);
    let grant = b
        .proto
        .grant_piggy(&mut b.io, &mut b.mem, 1, NodeId(0), &req);
    a.proto.on_acquired(&mut a.io, &mut a.mem, 1, grant);
    let (ready, _) = a
        .proto
        .read_fault_batch(&mut a.io, &mut a.mem, &[PageId(0)]);
    assert!(!ready);
    let req = a.io.sent.pop().expect("a diff request").1;
    let rep = b.deliver(0, req).pop().expect("the diff");
    assert!(matches!(rep, ProtoMsg::LrcDiffRep { .. }));
    assert!(a.deliver(1, with_run_at(&rep, offset)).is_empty());
    assert!(a.events.is_empty() && a.byte0(0) == Some(0));
    a.deliver(1, rep);
    assert!(a.events == [ProtoEvent::PageReady(PageId(0))] && a.byte0(0) == Some(7));

    // `LrcFlush`: node 1 writes page 0 and departs for a barrier.
    let (mut a, mut b) = (Node::new(0, Lrc::new), Node::new(1, Lrc::new));
    write_page0(&mut a, &mut b, 7);
    assert!(!b.proto.pre_release(&mut b.io, &mut b.mem, None));
    let flush = b.io.sent.pop().expect("a flush").1;
    assert!(matches!(flush, ProtoMsg::LrcFlush { .. }));
    assert!(a.deliver(1, with_run_at(&flush, offset)).is_empty());
    assert_eq!(a.deliver(1, flush), [ProtoMsg::LrcFlushAck]);

    // `DiffFlush`: the same under eager release consistency, where the
    // home applies the diff on arrival.
    let (mut a, mut b) = (Node::new(0, Erc::new), Node::new(1, Erc::new));
    write_page0(&mut a, &mut b, 7);
    assert!(!b.proto.pre_release(&mut b.io, &mut b.mem, None));
    let flush = b.io.sent.pop().expect("a flush").1;
    assert!(matches!(flush, ProtoMsg::DiffFlush { .. }));
    assert!(a.deliver(1, with_run_at(&flush, offset)).is_empty());
    assert_eq!(a.byte0(0), Some(0));
    let acks = a.deliver(1, flush);
    assert!(matches!(acks[..], [ProtoMsg::FlushAck { .. }]) && a.byte0(0) == Some(7));
}

/// A diff's offsets and lengths are whatever the datagram said, and
/// used to index the page unchecked: a run one past the last byte …
#[test]
fn a_diff_run_starting_at_the_page_end_is_refused() {
    a_diff_outside_the_page_is_dropped(PAGE as u32);
}

/// … and one whose `offset + len` wraps a `u32` back inside the page.
#[test]
fn a_diff_run_wrapping_u32_is_refused() {
    a_diff_outside_the_page_is_dropped(u32::MAX);
}

/// A datagram of nothing but nested envelopes must be refused before
/// `decode` recurses far: unbounded, 12 000 levels (a 60 KB payload any
/// local process can send to a node's UDP port) overflow a 2 MiB stack
/// and abort the process. Decoded on a spawned thread, whose stack is
/// the default size a cluster node's serving thread gets.
#[test]
fn runaway_nesting_is_refused() {
    let batch_tag = ProtoMsg::Batch(Vec::new()).tag();
    let mut batches = Vec::new();
    for _ in 0..12_000 {
        batches.push(batch_tag);
        batches.extend_from_slice(&1u32.to_le_bytes());
    }
    batches.extend(to_wire_bytes(&ProtoMsg::LrcFlushAck));

    let mut chain = Piggy::None;
    for _ in 0..64 {
        chain = Piggy::Obj {
            ver: 0,
            objs: Vec::new(),
            inner: Box::new(chain),
        };
    }
    let objs = to_wire_bytes(&chain);

    std::thread::spawn(move || {
        assert!(from_wire_bytes::<ProtoMsg>(&batches).is_none());
        assert!(from_wire_bytes::<Piggy>(&objs).is_none());
    })
    .join()
    .expect("decode must not panic");
}

/// A clock with components above (2, 3) and below (1) its base.
fn delta_around_base() -> VClockDelta {
    let mut base = VClock::new(5);
    (0..5).for_each(|i| base.set(i, 5));
    let mut vc = base.clone();
    vc.set(1, 2);
    vc.set(2, 9);
    vc.set(3, 6);
    VClockDelta::against(&Arc::new(vc), &Arc::new(base))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The cluster's encoding of LRC's causal metadata and diff messages,
/// byte for byte: both ends of a run are one binary, but the bytes are
/// what a node sends, and keeping them is how an in-memory rewrite of
/// these types proves it changed nothing on the wire. Recorded before
/// clocks, records and diffs became shared values.
#[test]
fn lrc_wire_bytes_are_pinned() {
    let id = IntervalId::new(NodeId(2), 4);
    let golden: [(&str, Vec<u8>, &str); 5] = [
        (
            "VClockDelta",
            to_wire_bytes(&delta_around_base()),
            concat!(
                "0500000005000000050000000500000005000000050000000300000001000000",
                "0200000002000000090000000300000006000000",
            ),
        ),
        (
            "WireIntervalRecord",
            to_wire_bytes(&rec()),
            concat!(
                "0100000005000000040000000000000000000000000000000000000002000000",
                "0100000005000000030000000200000002000000000000000000000009000000",
                "00000000",
            ),
        ),
        (
            "LrcDiffRep",
            to_wire_bytes(&ProtoMsg::LrcDiffRep {
                page: 3,
                diffs: vec![
                    (id, shared_diff()),
                    (IntervalId::new(NodeId(2), 6), shared_diff()),
                ],
            }),
            concat!(
                "1703000000000000000200000002000000040000000200000003000000010000",
                "0007280000000200000009010200000006000000020000000300000001000000",
                "0728000000020000000901",
            ),
        ),
        (
            "LrcFlush",
            to_wire_bytes(&ProtoMsg::LrcFlush {
                diffs: vec![(id, 3, shared_diff())],
            }),
            concat!(
                "1b01000000020000000400000003000000000000000200000003000000010000",
                "000728000000020000000901",
            ),
        ),
        (
            "LrcIntervals",
            to_wire_bytes(&Piggy::LrcIntervals(vec![rec(), rec()])),
            concat!(
                "0202000000010000000500000004000000000000000000000000000000000000",
                "0002000000010000000500000003000000020000000200000000000000000000",
                "0009000000000000000100000005000000040000000000000000000000000000",
                "0000000000020000000100000005000000030000000200000002000000000000",
                "00000000000900000000000000",
            ),
        ),
    ];
    for (name, bytes, want) in golden {
        assert_eq!(hex(&bytes), want, "{name}");
    }
    round_trip(&delta_around_base());
}

#[test]
fn wire_primitives_cover_shared_types() {
    round_trip(&GlobalAddr(0xDEAD_BEEF));
    round_trip(&PageId(42));
    round_trip(&diff());
    round_trip(&rec());
    round_trip(&delta());
}
