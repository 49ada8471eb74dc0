//! Write-update protocol with home-node sequencing.
//!
//! Every page has a *home* holding the master copy and a per-page
//! update sequence. Writes are sent to the home, which applies them in
//! arrival order and multicasts them to every registered copy holder —
//! including the writer, so every replica applies the same stream in
//! the same order. Each holder acks each apply to the home, and the
//! writer's operation completes when the home has every holder's ack,
//! which yields sequential consistency: the home is the serialization
//! point and a write is not "done" until every replica holds it — also
//! when a retransmitted apply is slower than the writer's next message.
//!
//! This is the demand-side stand-in for eager-sharing/update-based DSM:
//! readers spin on *local* copies that the network refreshes, so
//! producer-consumer handoffs cost no reader-side round trips.

use crate::api::{ProtoEvent, ProtoIo, Protocol, WriteOutcome};
use crate::msg::ProtoMsg;
use dsm_mem::{Access, FrameTable, GlobalAddr, NodeSet, PageId, PageMap, SpaceLayout};
use dsm_net::NodeId;
use std::collections::HashMap;

/// Write-update protocol state for one node.
pub struct Update {
    layout: SpaceLayout,
    me: NodeId,
    /// Home-side: registered copy holders per page (never includes the
    /// home itself; the master copy is updated directly).
    copyset: PageMap<usize, NodeSet>,
    /// Home-side: per-page update sequence numbers.
    seq: PageMap<usize, u64>,
    /// Home-side: writes whose applies are not all acked, by
    /// `(page, seq)`: the writer and the acks still missing.
    unacked: HashMap<(usize, u64), (NodeId, usize)>,
    /// Copy-holder-side: last sequence applied per page (gap check).
    last_seen: PageMap<usize, u64>,
    /// Writer-side: chunks of the current write op not yet held by
    /// every replica.
    outstanding: u32,
    /// Read fetch in flight.
    pending_fetch: Option<usize>,
}

impl Update {
    pub fn new(me: NodeId, layout: SpaceLayout) -> Self {
        Update {
            layout,
            me,
            copyset: PageMap::default(),
            seq: PageMap::default(),
            unacked: HashMap::new(),
            last_seen: PageMap::default(),
            outstanding: 0,
            pending_fetch: None,
        }
    }

    fn home_of(&self, page: usize) -> NodeId {
        self.layout.home_of(PageId(page))
    }

    /// Home-side: apply `writer`'s write to the master copy and multicast
    /// it. `Some(seq)` if it is done now (no copy holders); else it is
    /// done once every holder has acked the apply.
    fn master_write(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        writer: NodeId,
        page: usize,
        off: usize,
        data: &[u8],
    ) -> Option<u64> {
        let bytes = mem
            .page_bytes_mut(PageId(page))
            .expect("home must hold the master copy");
        bytes[off..off + data.len()].copy_from_slice(data);
        let seq = self.seq.entry(page).or_insert(0);
        *seq += 1;
        let seq = *seq;
        let Some(cs) = self.copyset.get(&page) else {
            return Some(seq);
        };
        for member in cs.iter() {
            io.send(
                member,
                ProtoMsg::UpdApply {
                    page,
                    off: off as u32,
                    data: data.to_vec().into_boxed_slice(),
                    seq,
                },
            );
        }
        self.unacked.insert((page, seq), (writer, cs.len()));
        None
    }

    /// Writer-side: one chunk of the write op is held everywhere.
    fn chunk_done(&mut self, events: &mut Vec<ProtoEvent>) {
        assert!(self.outstanding > 0);
        self.outstanding -= 1;
        if self.outstanding == 0 {
            events.push(ProtoEvent::WriteDone);
        }
    }
}

impl Protocol for Update {
    fn on_start(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        // Master copies live at their homes, read-only: every write is
        // protocol-mediated so that the home stays the serialization
        // point.
        for p in self.layout.pages_of(self.me) {
            mem.install_zeroed(p, Access::Read);
        }
    }

    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        // One fetch at a time (a new copy holder must observe the
        // per-page update stream gaplessly from its fetch sequence
        // number), so prefetch candidates are ignored.
        debug_assert!(!pages.is_empty());
        let page = pages[0];
        let home = self.home_of(page.0);
        assert_ne!(home, self.me, "home cannot read-fault on its master copy");
        assert!(self.pending_fetch.is_none());
        self.pending_fetch = Some(page.0);
        io.send(home, ProtoMsg::FetchReq { page: page.0 });
        (false, Vec::new())
    }

    fn write_op(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        addr: GlobalAddr,
        data: &[u8],
    ) -> WriteOutcome {
        let g = self.layout.geometry;
        let mut pos = 0;
        let mut pending = 0u32;
        while pos < data.len() {
            let a = addr.offset(pos);
            let page = g.page_of(a).0;
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(data.len() - pos);
            let chunk = &data[pos..pos + n];
            let home = self.home_of(page);
            if home == self.me {
                let done = self.master_write(io, mem, self.me, page, off, chunk);
                pending += u32::from(done.is_none());
            } else {
                io.send(
                    home,
                    ProtoMsg::UpdWrite {
                        page,
                        off: off as u32,
                        data: chunk.to_vec().into_boxed_slice(),
                    },
                );
                pending += 1;
            }
            pos += n;
        }
        if pending == 0 {
            WriteOutcome::Done
        } else {
            self.outstanding = pending;
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
            ProtoMsg::UpdWrite { page, off, data } => {
                if let Some(seq) = self.master_write(io, mem, from, page, off as usize, &data) {
                    io.send(from, ProtoMsg::UpdAck { page, seq });
                }
            }
            ProtoMsg::UpdApply {
                page,
                off,
                data,
                seq,
            } => {
                let last = self.last_seen.get(&page).copied().unwrap_or(0);
                assert_eq!(
                    seq,
                    last + 1,
                    "{}: update stream gap on p{page} (got {seq}, had {last}) — \
                     the update protocol requires FIFO links",
                    self.me
                );
                self.last_seen.insert(page, seq);
                let bytes = mem
                    .page_bytes_mut(PageId(page))
                    .expect("update for a page we do not hold");
                let off = off as usize;
                bytes[off..off + data.len()].copy_from_slice(&data);
                io.send(from, ProtoMsg::UpdAck { page, seq });
            }
            ProtoMsg::UpdAck { page, seq } if self.home_of(page) == self.me => {
                // A copy holder applied write `seq`; the last one's ack
                // completes the write.
                let (writer, missing) = self
                    .unacked
                    .get_mut(&(page, seq))
                    .expect("an apply ack for a write in flight");
                *missing -= 1;
                if *missing == 0 {
                    let writer = *writer;
                    self.unacked.remove(&(page, seq));
                    if writer == self.me {
                        self.chunk_done(events);
                    } else {
                        io.send(writer, ProtoMsg::UpdAck { page, seq });
                    }
                }
            }
            ProtoMsg::UpdAck { .. } => self.chunk_done(events),
            ProtoMsg::FetchReq { page } => {
                // Register the new copy holder, then ship the master at
                // its current sequence point; FIFO links keep the
                // subsequent update stream gapless for the requester.
                self.copyset.entry(page).or_default().insert(from);
                let seq = self.seq.get(&page).copied().unwrap_or(0);
                let data = mem
                    .page_bytes(PageId(page))
                    .expect("home must hold master")
                    .to_vec()
                    .into_boxed_slice();
                io.send(from, ProtoMsg::FetchRep { page, data, seq });
            }
            ProtoMsg::FetchRep { page, data, seq } => {
                assert_eq!(self.pending_fetch.take(), Some(page));
                mem.install(PageId(page), data, Access::Read);
                self.last_seen.insert(page, seq);
                events.push(ProtoEvent::PageReady(PageId(page)));
            }
            other => {
                panic!(
                    "update got unexpected message {}",
                    dsm_net::Payload::kind(&other)
                )
            }
        }
    }
}
