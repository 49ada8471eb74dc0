//! SC-ABD: quorum-replicated pages that serve through node death.
//!
//! Every node is a replica for every page; a page is a multi-writer
//! atomic register in the style of ABD, with the reconfiguration-on-
//! recovery twist of Ekström & Haridi's SC-ABD. Each register carries
//! a tag `(seq, writer)`; operations run in two phases against
//! majorities:
//!
//! * **read**: query a majority for the highest tag, then (unless the
//!   quorum was unanimous) write that tag's value back to a majority so
//!   a later read cannot observe an older one;
//! * **write**: query a majority for the highest tag, merge the
//!   application's bytes into that value, and store it at a majority
//!   under tag `(max_seq + 1, me)`.
//!
//! Because every completed operation intersects every majority, the
//! silent loss of any minority of replicas — crash faults injected by
//! the kernel — loses no committed data, and coordinators never need to
//! know who is down: quorums are satisfied by whoever answers. A
//! recovered replica rejoins via a re-sync round (it adopts the
//! max-tag state of its peers and holds incoming queries until the
//! round completes) so it cannot serve as a quorum witness for values
//! it lost in the crash.
//!
//! Coordinator-side caching is deliberately absent: a page installed
//! for a faulted read is invalidated again when the operation retires,
//! so *every* read pays its quorum. That is the replication tax
//! experiment E19 measures against IVY.
//!
//! Non-goals (see docs/PROTOCOLS.md): tolerance of `f ≥ N/2` replica
//! failures, sub-page write-write race atomicity, and concurrent
//! failures while a replica is re-syncing.

use crate::api::{ProtoEvent, ProtoIo, Protocol, WriteOutcome};
use crate::msg::ProtoMsg;
use dsm_mem::{Access, FrameTable, GlobalAddr, PageId, SpaceLayout};
use dsm_net::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `page` value marking a recovery re-sync query / terminator.
const SYNC_PAGE: usize = usize::MAX;

/// Register tag: `(sequence, writer)`, compared lexicographically.
type Tag = (u64, u32);

#[derive(Debug)]
enum OpKind {
    /// A faulted application read; completes with `PageReady`.
    Read,
    /// One page-chunk of a taken-over application write.
    Write { off: usize, data: Box<[u8]> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Phase 1: collecting tag+value replies.
    Query,
    /// Phase 2: collecting store acknowledgements.
    Update,
}

/// One in-flight two-phase quorum operation (at most one at a time:
/// the runtime blocks the application on the parked op).
struct Txn {
    page: usize,
    /// Current phase's transaction id; replies with any other id are
    /// stragglers from a superseded phase (or a pre-crash life) and
    /// are dropped.
    id: u64,
    phase: Phase,
    /// Remote replies received this phase (the coordinator's own
    /// replica is counted implicitly).
    replies: u32,
    /// Running maximum over phase-1 replies, seeded from the local
    /// replica; in phase 2, the image being stored. `None` data means
    /// "no copy" (tag must be `(0, 0)`).
    best: (Tag, Option<Box<[u8]>>),
    /// Phase 1 only: every tag seen so far equals `best.0` — lets a
    /// read skip the write-back (the max value is already at a
    /// majority).
    unanimous: bool,
    kind: OpKind,
}

/// What a fault stashed while the replica was still re-syncing.
enum Stalled {
    Read(usize),
    Write,
}

/// SC-ABD protocol state for one node.
pub struct Scabd {
    me: NodeId,
    nnodes: u32,
    layout: SpaceLayout,
    /// Replica store: page → (tag, bytes). A `BTreeMap` so that the
    /// re-sync dump iterates in a deterministic order.
    store: BTreeMap<usize, (Tag, Box<[u8]>)>,
    /// Transaction id allocator (fresh id per phase).
    next_txn: u64,
    active: Option<Txn>,
    /// Remaining page-chunks of the current write op.
    write_chunks: VecDeque<(usize, usize, Box<[u8]>)>,
    /// Completion events produced by quorum completion, drained into
    /// the runtime's event list (or consumed synchronously at N = 1).
    done: Vec<ProtoEvent>,
    /// A completed read's image awaiting frame-table installation.
    pending_install: Option<(PageId, Box<[u8]>)>,
    /// Pages installed readable for the current faulted op; dropped
    /// again at `op_retired` so every read pays its quorum.
    installed: Vec<PageId>,
    /// False from recovery until the re-sync round completes.
    synced: bool,
    /// Re-sync round: its query txn and the peers whose terminator is
    /// still outstanding.
    sync_txn: u64,
    sync_waiting: BTreeSet<u32>,
    /// Queries received while re-syncing, answered (in order) once the
    /// round completes — an unsynced replica must not witness.
    held_queries: Vec<(NodeId, usize, u64)>,
    /// A fault that arrived while re-syncing, launched on completion.
    stalled: Option<Stalled>,
}

impl Scabd {
    pub fn new(me: NodeId, layout: SpaceLayout) -> Self {
        let nnodes = layout.nnodes();
        Scabd {
            me,
            nnodes,
            layout,
            store: BTreeMap::new(),
            next_txn: 0,
            active: None,
            write_chunks: VecDeque::new(),
            done: Vec::new(),
            pending_install: None,
            installed: Vec::new(),
            synced: true,
            sync_txn: 0,
            sync_waiting: BTreeSet::new(),
            held_queries: Vec::new(),
            stalled: None,
        }
    }

    /// Majority quorum size over all `N` replicas.
    fn majority(&self) -> u32 {
        self.nnodes / 2 + 1
    }

    /// Remote replies needed per phase (the local replica is the
    /// quorum's first member).
    fn remote_needed(&self) -> u32 {
        self.majority() - 1
    }

    fn fresh_txn(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn
    }

    fn page_size(&self) -> usize {
        self.layout.geometry.page_size()
    }

    fn local_tag(&self, page: usize) -> (Tag, Option<Box<[u8]>>) {
        match self.store.get(&page) {
            Some((tag, data)) => (*tag, Some(data.clone())),
            None => ((0, 0), None),
        }
    }

    /// Store `data` under `tag` if newer than what we hold.
    fn apply_update(&mut self, page: usize, tag: Tag, data: &[u8]) {
        if let Some((cur, bytes)) = self.store.get_mut(&page) {
            if tag > *cur {
                *cur = tag;
                bytes.copy_from_slice(data);
            }
        } else {
            self.store
                .insert(page, (tag, data.to_vec().into_boxed_slice()));
        }
    }

    fn broadcast(&mut self, io: &mut dyn ProtoIo, msg: &ProtoMsg) {
        for n in 0..self.nnodes {
            if n != self.me.0 {
                io.send(NodeId(n), msg.clone());
            }
        }
    }

    /// Reply to a phase-1 query from our replica state.
    fn answer_query(&self, io: &mut dyn ProtoIo, from: NodeId, page: usize, txn: u64) {
        let (tag, data) = self.local_tag(page);
        io.send(
            from,
            ProtoMsg::ScabdR {
                page,
                txn,
                seq: tag.0,
                writer: tag.1,
                data,
            },
        );
    }

    /// Start phase 1 for `page` (both op kinds).
    fn begin(&mut self, io: &mut dyn ProtoIo, page: usize, kind: OpKind) {
        debug_assert!(self.active.is_none() && self.synced);
        let id = self.fresh_txn();
        let best = self.local_tag(page);
        self.active = Some(Txn {
            page,
            id,
            phase: Phase::Query,
            replies: 0,
            best,
            unanimous: true,
            kind,
        });
        self.broadcast(io, &ProtoMsg::ScabdQ { page, txn: id });
        if self.remote_needed() == 0 {
            // Single-replica degenerate case: quorum is just us.
            self.finish_query(io);
        }
    }

    /// Phase 1 complete: max tag known at a majority. Launch phase 2
    /// (or skip it where the quorum was unanimous).
    fn finish_query(&mut self, io: &mut dyn ProtoIo) {
        let ps = self.page_size();
        let me = self.me.0;
        let (page, max_tag, max_data, unanimous, write) = {
            let txn = self.active.as_mut().expect("phase 1 must be active");
            debug_assert_eq!(txn.phase, Phase::Query);
            let data = txn.best.1.take();
            let write = match &mut txn.kind {
                OpKind::Read => None,
                OpKind::Write { off, data } => Some((*off, std::mem::take(data))),
            };
            (txn.page, txn.best.0, data, txn.unanimous, write)
        };
        let mut image = max_data.unwrap_or_else(|| vec![0u8; ps].into_boxed_slice());
        let tag = match write {
            None => {
                if unanimous {
                    // The max value is already at a majority; the
                    // write-back would be a no-op round.
                    self.complete(io, image);
                    return;
                }
                max_tag
            }
            Some((off, chunk)) => {
                image[off..off + chunk.len()].copy_from_slice(&chunk);
                (max_tag.0 + 1, me)
            }
        };
        let id = self.fresh_txn();
        {
            let txn = self.active.as_mut().expect("still active");
            txn.id = id;
            txn.phase = Phase::Update;
            txn.replies = 0;
            txn.best = (tag, Some(image.clone()));
        }
        self.apply_update(page, tag, &image);
        self.broadcast(
            io,
            &ProtoMsg::ScabdU {
                page,
                txn: id,
                seq: tag.0,
                writer: tag.1,
                data: image,
            },
        );
        if self.remote_needed() == 0 {
            self.finish_update(io);
        }
    }

    /// Phase 2 complete: the value is stored at a majority.
    fn finish_update(&mut self, io: &mut dyn ProtoIo) {
        let image = {
            let txn = self.active.as_mut().expect("phase 2 must be active");
            debug_assert_eq!(txn.phase, Phase::Update);
            txn.best.1.take().expect("phase 2 carries the image")
        };
        self.complete(io, image);
    }

    /// The operation's quorum work is done; stage its completion.
    fn complete(&mut self, io: &mut dyn ProtoIo, image: Box<[u8]>) {
        let txn = self.active.take().expect("completing an active op");
        match txn.kind {
            OpKind::Read => {
                self.pending_install = Some((PageId(txn.page), image));
                self.done.push(ProtoEvent::PageReady(PageId(txn.page)));
            }
            OpKind::Write { .. } => {
                if let Some((page, off, data)) = self.write_chunks.pop_front() {
                    self.begin(io, page, OpKind::Write { off, data });
                } else {
                    self.done.push(ProtoEvent::WriteDone);
                }
            }
        }
    }

    /// Install a completed read's image into the frame table.
    fn install_pending(&mut self, mem: &mut FrameTable) {
        if let Some((page, image)) = self.pending_install.take() {
            mem.install(page, image, Access::Read);
            self.installed.push(page);
        }
    }

    /// Move buffered completion events into the runtime's list.
    fn flush_done(&mut self, events: &mut Vec<ProtoEvent>) {
        events.append(&mut self.done);
    }

    /// Re-sync bookkeeping: when every peer has terminated (or died),
    /// the replica may serve and witness again.
    fn maybe_finish_sync(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        if self.synced || !self.sync_waiting.is_empty() {
            return;
        }
        self.synced = true;
        for (from, page, txn) in std::mem::take(&mut self.held_queries) {
            self.answer_query(io, from, page, txn);
        }
        match self.stalled.take() {
            Some(Stalled::Read(page)) => self.begin(io, page, OpKind::Read),
            Some(Stalled::Write) => {
                let (page, off, data) = self
                    .write_chunks
                    .pop_front()
                    .expect("stalled write keeps its chunks");
                self.begin(io, page, OpKind::Write { off, data });
            }
            None => {}
        }
        self.install_pending(mem);
    }
}

impl Protocol for Scabd {
    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        debug_assert!(!pages.is_empty());
        let page = pages[0].0;
        if !self.synced {
            self.stalled = Some(Stalled::Read(page));
            return (false, Vec::new());
        }
        self.begin(io, page, OpKind::Read);
        if self.pending_install.is_some() {
            // Completed inline (N = 1): install now, supersede the
            // buffered PageReady with the synchronous return.
            self.install_pending(mem);
            self.done.clear();
            return (true, Vec::new());
        }
        (false, Vec::new())
    }

    fn write_op(
        &mut self,
        io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        addr: GlobalAddr,
        data: &[u8],
    ) -> WriteOutcome {
        let g = self.layout.geometry;
        let mut pos = 0;
        while pos < data.len() {
            let a = addr.offset(pos);
            let page = g.page_of(a).0;
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(data.len() - pos);
            self.write_chunks.push_back((
                page,
                off,
                data[pos..pos + n].to_vec().into_boxed_slice(),
            ));
            pos += n;
        }
        if !self.synced {
            self.stalled = Some(Stalled::Write);
            return WriteOutcome::Async;
        }
        let (page, off, chunk) = self.write_chunks.pop_front().expect("data is non-empty");
        self.begin(io, page, OpKind::Write { off, data: chunk });
        if self.done.contains(&ProtoEvent::WriteDone) {
            // Completed inline (N = 1) through every chunk.
            self.done.clear();
            WriteOutcome::Done
        } else {
            WriteOutcome::Async
        }
    }

    fn on_message(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        msg: ProtoMsg,
        events: &mut Vec<ProtoEvent>,
    ) {
        match msg {
            ProtoMsg::ScabdQ { page, txn } => {
                if page == SYNC_PAGE {
                    // Recovery re-sync: dump our store (deterministic
                    // order) and terminate the round.
                    let dump: Vec<_> = self
                        .store
                        .iter()
                        .map(|(p, (t, d))| (*p, *t, d.clone()))
                        .collect();
                    for (p, (seq, writer), data) in dump {
                        io.send(
                            from,
                            ProtoMsg::ScabdR {
                                page: p,
                                txn,
                                seq,
                                writer,
                                data: Some(data),
                            },
                        );
                    }
                    io.send(
                        from,
                        ProtoMsg::ScabdR {
                            page: SYNC_PAGE,
                            txn,
                            seq: 0,
                            writer: 0,
                            data: None,
                        },
                    );
                } else if !self.synced {
                    // An unsynced replica must not witness: it could
                    // vouch for state it lost in the crash.
                    self.held_queries.push((from, page, txn));
                } else {
                    self.answer_query(io, from, page, txn);
                }
            }
            ProtoMsg::ScabdU {
                page,
                txn,
                seq,
                writer,
                data,
            } => {
                // Storing is always safe, synced or not.
                self.apply_update(page, (seq, writer), &data);
                io.send(
                    from,
                    ProtoMsg::ScabdR {
                        page,
                        txn,
                        seq,
                        writer,
                        data: None,
                    },
                );
            }
            ProtoMsg::ScabdR {
                page,
                txn,
                seq,
                writer,
                data,
            } => {
                if !self.synced && txn == self.sync_txn {
                    if page == SYNC_PAGE {
                        self.sync_waiting.remove(&from.0);
                        self.maybe_finish_sync(io, mem);
                    } else if let Some(d) = data {
                        self.apply_update(page, (seq, writer), &d);
                    }
                    self.flush_done(events);
                    return;
                }
                let needed = self.remote_needed();
                let advance = {
                    let Some(txn_st) = self.active.as_mut() else {
                        return; // straggler from a superseded phase
                    };
                    if txn_st.id != txn {
                        return;
                    }
                    match txn_st.phase {
                        Phase::Query => {
                            debug_assert_eq!(txn_st.page, page);
                            let tag = (seq, writer);
                            if tag != txn_st.best.0 {
                                txn_st.unanimous = false;
                            }
                            if tag > txn_st.best.0 {
                                txn_st.best = (tag, data);
                            }
                        }
                        Phase::Update => {
                            debug_assert!(data.is_none());
                        }
                    }
                    txn_st.replies += 1;
                    if txn_st.replies >= needed {
                        Some(txn_st.phase)
                    } else {
                        None
                    }
                };
                match advance {
                    Some(Phase::Query) => self.finish_query(io),
                    Some(Phase::Update) => self.finish_update(io),
                    None => {}
                }
                self.install_pending(mem);
                self.flush_done(events);
            }
            other => {
                panic!(
                    "scabd got unexpected message {}",
                    dsm_net::Payload::kind(&other)
                )
            }
        }
    }

    fn op_retired(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        // Drop read rights again: atomicity comes from the quorum
        // rounds, so a cached copy must never satisfy a later read.
        for page in self.installed.drain(..) {
            mem.invalidate(page);
        }
    }

    fn on_crash(&mut self, _mem: &mut FrameTable) {
        // Volatile state is gone: replica store, in-flight quorums,
        // queued chunks. The tag allocator restarts too — a write's
        // tag derives from the quorum max, never from local memory.
        self.store.clear();
        self.active = None;
        self.write_chunks.clear();
        self.done.clear();
        self.pending_install = None;
        self.installed.clear();
        self.held_queries.clear();
        self.stalled = None;
        self.next_txn = 0;
        self.synced = true;
        self.sync_waiting.clear();
    }

    fn on_recover(&mut self, io: &mut dyn ProtoIo, _mem: &mut FrameTable) {
        if self.nnodes == 1 {
            return; // nothing to re-sync from
        }
        self.synced = false;
        self.sync_txn = self.fresh_txn();
        self.sync_waiting = (0..self.nnodes).filter(|&n| n != self.me.0).collect();
        let txn = self.sync_txn;
        self.broadcast(
            io,
            &ProtoMsg::ScabdQ {
                page: SYNC_PAGE,
                txn,
            },
        );
    }

    fn on_peer_down(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        peer: NodeId,
        events: &mut Vec<ProtoEvent>,
    ) {
        // A dead peer will never terminate our re-sync round; stop
        // waiting for it (single-failure assumption: see module docs).
        if !self.synced && self.sync_waiting.remove(&peer.0) {
            self.maybe_finish_sync(io, mem);
            self.flush_done(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_io::FakeIo;
    use dsm_mem::{PageGeometry, Placement};
    use dsm_net::CostModel;

    fn harness(nnodes: u32) -> (Scabd, FakeIo, FrameTable) {
        let g = PageGeometry::new(64);
        let layout = SpaceLayout::new(g, 8, Placement::Cyclic, nnodes);
        let p = Scabd::new(NodeId(0), layout);
        let io = FakeIo::new(CostModel::lan_1992());
        (p, io, FrameTable::new(g))
    }

    #[test]
    fn single_node_ops_complete_inline() {
        let (mut p, mut io, mut mem) = harness(1);
        let out = p.write_op(&mut io, &mut mem, GlobalAddr(4), &[7, 8]);
        assert!(matches!(out, WriteOutcome::Done));
        assert!(io.sent.is_empty());
        let (resolved, issued) = p.read_fault_batch(&mut io, &mut mem, &[PageId(0)]);
        assert!(resolved && issued.is_empty());
        let mut buf = [0u8; 2];
        assert!(mem.try_read(GlobalAddr(4), &mut buf));
        assert_eq!(buf, [7, 8]);
    }

    #[test]
    fn three_node_write_runs_two_phases_to_a_majority() {
        let (mut p, mut io, mut mem) = harness(3);
        let out = p.write_op(&mut io, &mut mem, GlobalAddr(0), &[9]);
        assert!(matches!(out, WriteOutcome::Async));
        // Phase 1: queries to both peers.
        assert_eq!(io.sent.len(), 2);
        let q_txn = match &io.sent[0].1 {
            ProtoMsg::ScabdQ { page: 0, txn } => *txn,
            m => panic!("expected query, got {m:?}"),
        };
        io.sent.clear();
        // One peer answers (majority of 3 = self + 1 remote).
        let mut events = Vec::new();
        p.on_message(
            &mut io,
            &mut mem,
            NodeId(1),
            ProtoMsg::ScabdR {
                page: 0,
                txn: q_txn,
                seq: 0,
                writer: 0,
                data: None,
            },
            &mut events,
        );
        assert!(events.is_empty());
        // Phase 2: updates with tag (1, 0) to both peers.
        assert_eq!(io.sent.len(), 2);
        let u_txn = match &io.sent[0].1 {
            ProtoMsg::ScabdU {
                page: 0,
                txn,
                seq: 1,
                writer: 0,
                data,
            } => {
                assert_eq!(data[0], 9);
                *txn
            }
            m => panic!("expected update, got {m:?}"),
        };
        io.sent.clear();
        p.on_message(
            &mut io,
            &mut mem,
            NodeId(2),
            ProtoMsg::ScabdR {
                page: 0,
                txn: u_txn,
                seq: 1,
                writer: 0,
                data: None,
            },
            &mut events,
        );
        assert_eq!(events, vec![ProtoEvent::WriteDone]);
    }

    #[test]
    fn unanimous_read_skips_the_write_back() {
        let (mut p, mut io, mut mem) = harness(3);
        // Seed the local replica so the quorum can be unanimous.
        p.apply_update(0, (2, 1), &[5u8; 64]);
        let (resolved, _) = p.read_fault_batch(&mut io, &mut mem, &[PageId(0)]);
        assert!(!resolved);
        let q_txn = match &io.sent[0].1 {
            ProtoMsg::ScabdQ { page: 0, txn } => *txn,
            m => panic!("expected query, got {m:?}"),
        };
        io.sent.clear();
        let mut events = Vec::new();
        p.on_message(
            &mut io,
            &mut mem,
            NodeId(2),
            ProtoMsg::ScabdR {
                page: 0,
                txn: q_txn,
                seq: 2,
                writer: 1,
                data: Some(vec![5u8; 64].into_boxed_slice()),
            },
            &mut events,
        );
        assert_eq!(events, vec![ProtoEvent::PageReady(PageId(0))]);
        assert!(io.sent.is_empty(), "no phase 2 on a unanimous quorum");
        // The installed page is dropped again when the op retires.
        assert!(mem.holds(PageId(0)));
        p.op_retired(&mut io, &mut mem);
        assert!(!mem.access(PageId(0)).allows_read());
    }

    #[test]
    fn recovery_holds_queries_until_the_resync_completes() {
        let (mut p, mut io, mut mem) = harness(3);
        p.on_crash(&mut mem);
        p.on_recover(&mut io, &mut mem);
        assert_eq!(io.sent.len(), 2, "sync query to every peer");
        let s_txn = match &io.sent[0].1 {
            ProtoMsg::ScabdQ { page, txn } => {
                assert_eq!(*page, SYNC_PAGE);
                *txn
            }
            m => panic!("expected sync query, got {m:?}"),
        };
        io.sent.clear();
        // A query arriving mid-sync is held, not answered.
        let mut events = Vec::new();
        p.on_message(
            &mut io,
            &mut mem,
            NodeId(1),
            ProtoMsg::ScabdQ { page: 3, txn: 77 },
            &mut events,
        );
        assert!(io.sent.is_empty());
        // Peers dump their stores and terminate.
        p.on_message(
            &mut io,
            &mut mem,
            NodeId(1),
            ProtoMsg::ScabdR {
                page: 3,
                txn: s_txn,
                seq: 4,
                writer: 1,
                data: Some(vec![1u8; 64].into_boxed_slice()),
            },
            &mut events,
        );
        for peer in [1u32, 2] {
            p.on_message(
                &mut io,
                &mut mem,
                NodeId(peer),
                ProtoMsg::ScabdR {
                    page: SYNC_PAGE,
                    txn: s_txn,
                    seq: 0,
                    writer: 0,
                    data: None,
                },
                &mut events,
            );
        }
        // Synced: the held query is answered from the adopted state.
        assert_eq!(io.sent.len(), 1);
        match &io.sent[0] {
            (
                dst,
                ProtoMsg::ScabdR {
                    page: 3,
                    seq: 4,
                    writer: 1,
                    txn: 77,
                    data: Some(d),
                },
            ) => {
                assert_eq!(*dst, NodeId(1));
                assert_eq!(d[0], 1);
            }
            m => panic!("expected held-query answer, got {m:?}"),
        }
    }
}
