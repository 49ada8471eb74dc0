//! Write-update protocol with home-node sequencing.
//!
//! Every page has a *home* holding the master copy and a per-page
//! update sequence. Writes are sent to the home, which applies them in
//! arrival order and multicasts them to every registered copy holder —
//! including the writer, so every replica applies the same stream in
//! the same order. The writer's operation completes when the home's
//! acknowledgement arrives, which (over FIFO links) yields sequential
//! consistency: the home is the serialization point and a write is not
//! "done" until it is globally ordered.
//!
//! This is the demand-side stand-in for eager-sharing/update-based DSM:
//! readers spin on *local* copies that the network refreshes, so
//! producer-consumer handoffs cost no reader-side round trips.

use crate::api::{ProtoEvent, ProtoIo, Protocol, WriteOutcome};
use crate::msg::ProtoMsg;
use dsm_mem::{Access, FrameTable, GlobalAddr, NodeSet, PageId, PageMap, SpaceLayout};
use dsm_net::NodeId;

/// Write-update protocol state for one node.
pub struct Update {
    layout: SpaceLayout,
    me: NodeId,
    /// Home-side: registered copy holders per page (never includes the
    /// home itself; the master copy is updated directly).
    copyset: PageMap<usize, NodeSet>,
    /// Home-side: per-page update sequence numbers.
    seq: PageMap<usize, u64>,
    /// Copy-holder-side: last sequence applied per page (gap check).
    last_seen: PageMap<usize, u64>,
    /// Writer-side: acks outstanding for the current write op.
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
            last_seen: PageMap::default(),
            outstanding: 0,
            pending_fetch: None,
        }
    }

    fn home_of(&self, page: usize) -> NodeId {
        self.layout.home_of(PageId(page))
    }

    /// Home-side: apply a write to the master copy and multicast it.
    fn master_write(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        off: usize,
        data: &[u8],
    ) {
        let bytes = mem
            .page_bytes_mut(PageId(page))
            .expect("home must hold the master copy");
        bytes[off..off + data.len()].copy_from_slice(data);
        let seq = self.seq.entry(page).or_insert(0);
        *seq += 1;
        let seq = *seq;
        if let Some(cs) = self.copyset.get(&page) {
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

    fn write_fault(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable, _page: PageId) -> bool {
        unreachable!("update protocol writes go through write_op");
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
        let mut remote = 0u32;
        while pos < data.len() {
            let a = addr.offset(pos);
            let page = g.page_of(a).0;
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(data.len() - pos);
            let chunk = &data[pos..pos + n];
            let home = self.home_of(page);
            if home == self.me {
                self.master_write(io, mem, page, off, chunk);
            } else {
                io.send(
                    home,
                    ProtoMsg::UpdWrite {
                        page,
                        off: off as u32,
                        data: chunk.to_vec().into_boxed_slice(),
                    },
                );
                remote += 1;
            }
            pos += n;
        }
        if remote == 0 {
            WriteOutcome::Done
        } else {
            self.outstanding = remote;
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
                self.master_write(io, mem, page, off as usize, &data);
                io.send(from, ProtoMsg::UpdAck { page });
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
            }
            ProtoMsg::UpdAck { .. } => {
                assert!(self.outstanding > 0);
                self.outstanding -= 1;
                if self.outstanding == 0 {
                    events.push(ProtoEvent::WriteDone);
                }
            }
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
