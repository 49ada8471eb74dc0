//! Eager release consistency with multiple writers (Munin's
//! write-shared protocol).
//!
//! Writers take write access immediately after snapshotting a *twin* of
//! the page; at release time the changed byte runs (diffs) are flushed
//! to each page's home, which applies them to the master copy,
//! propagates them to every registered copy holder, and acknowledges
//! the writer once all copies are updated. The release completes only
//! when every flush is acknowledged — that eagerness is exactly what
//! lazy release consistency later removed, and the E6 experiment
//! measures the difference.
//!
//! Because diffs, not pages, travel and merge at the home, two nodes
//! writing disjoint parts of the same page never ping-pong it — the
//! false-sharing cure measured by E5.

use crate::api::{ProtoEvent, ProtoIo, Protocol};
use crate::msg::ProtoMsg;
use dsm_mem::{Access, FrameTable, NodeSet, PageDiff, PageId, PageMap, SpaceLayout};
use dsm_net::NodeId;
use std::collections::HashMap;

/// Eager-RC protocol state for one node.
pub struct Erc {
    layout: SpaceLayout,
    me: NodeId,
    /// Home-side: copy holders per page (excluding the home).
    copyset: PageMap<usize, NodeSet>,
    /// Writer-side: twins of pages dirtied since the last flush.
    twins: PageMap<usize, Box<[u8]>>,
    /// Home-side: flush transactions awaiting member acks
    /// (flush id → (writer, remaining acks)).
    inflight: HashMap<u64, (NodeId, u32)>,
    /// Writer-side: flush acks outstanding for the current release.
    outstanding: u32,
    /// Writer-side: next flush id (node id in the high bits keeps ids
    /// globally unique).
    next_flush: u64,
    /// Fetch in flight: (page, write intent).
    pending_fetch: Option<(usize, bool)>,
}

impl Erc {
    pub fn new(me: NodeId, layout: SpaceLayout) -> Self {
        Erc {
            layout,
            me,
            copyset: PageMap::default(),
            twins: PageMap::default(),
            inflight: HashMap::new(),
            outstanding: 0,
            next_flush: (me.0 as u64) << 32,
            pending_fetch: None,
        }
    }

    fn home_of(&self, page: usize) -> NodeId {
        self.layout.home_of(PageId(page))
    }

    fn make_twin(&mut self, mem: &mut FrameTable, page: usize) {
        self.twins.entry(page).or_insert_with(|| {
            mem.page_bytes(PageId(page))
                .expect("twin of a missing page")
                .to_vec()
                .into_boxed_slice()
        });
        mem.set_access(PageId(page), Access::Write);
    }

    /// Apply diffs to the local copy and, when the page is concurrently
    /// dirty here, to its twin as well — so this node's eventual diff
    /// carries only its own writes.
    fn apply_diffs(&mut self, mem: &mut FrameTable, diffs: &[(usize, PageDiff)]) {
        for (page, diff) in diffs {
            if let Some(bytes) = mem.page_bytes_mut(PageId(*page)) {
                diff.apply(bytes);
            }
            if let Some(twin) = self.twins.get_mut(page) {
                diff.apply(twin);
            }
        }
    }

    /// Home-side: apply a flush from `writer` and propagate to copies.
    fn home_flush(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        writer: NodeId,
        flush: u64,
        diffs: Vec<(usize, PageDiff)>,
    ) -> bool {
        // Master copies first.
        self.apply_diffs(mem, &diffs);
        // Propagate per member: each member gets the diffs of the pages
        // it holds.
        let mut per_member: HashMap<NodeId, Vec<(usize, PageDiff)>> = HashMap::new();
        for (page, diff) in &diffs {
            if let Some(cs) = self.copyset.get(page) {
                for m in cs.iter() {
                    if m != writer && m != self.me {
                        per_member.entry(m).or_default().push((*page, diff.clone()));
                    }
                }
            }
        }
        let remaining = per_member.len() as u32;
        if remaining == 0 {
            return true; // nothing to wait for
        }
        // Deterministic send order.
        let mut members: Vec<_> = per_member.into_iter().collect();
        members.sort_by_key(|(m, _)| *m);
        for (m, d) in members {
            io.send(
                m,
                ProtoMsg::DiffApply {
                    flush,
                    home: self.me,
                    diffs: d,
                },
            );
        }
        self.inflight.insert(flush, (writer, remaining));
        false
    }
}

impl Protocol for Erc {
    fn on_start(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
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
        // One fetch at a time (the flush-ack protocol keys server-side
        // state on a single in-flight fetch), so prefetch candidates
        // are ignored.
        debug_assert!(!pages.is_empty());
        let page = pages[0];
        let home = self.home_of(page.0);
        assert_ne!(home, self.me, "home cannot read-fault");
        assert!(self.pending_fetch.is_none());
        self.pending_fetch = Some((page.0, false));
        io.send(home, ProtoMsg::FetchReq { page: page.0 });
        (false, Vec::new())
    }

    fn write_fault(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        if mem.access(page).allows_read() {
            // Have a copy: twin it and write locally. This is the
            // multiple-writer fast path.
            self.make_twin(mem, page.0);
            true
        } else {
            // Need a copy first; twin on arrival.
            let home = self.home_of(page.0);
            assert_ne!(home, self.me, "home always holds its master copy");
            assert!(self.pending_fetch.is_none());
            self.pending_fetch = Some((page.0, true));
            io.send(home, ProtoMsg::FetchReq { page: page.0 });
            false
        }
    }

    fn pre_release(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        _lock: Option<dsm_sync::LockId>,
    ) -> bool {
        if self.twins.is_empty() {
            return true;
        }
        // Encode diffs, grouped by home node.
        let twins = std::mem::take(&mut self.twins);
        let mut by_home: HashMap<NodeId, Vec<(usize, PageDiff)>> = HashMap::new();
        for (page, twin) in twins {
            let cur = mem.page_bytes(PageId(page)).expect("dirty page vanished");
            let diff = PageDiff::create(&twin, cur);
            mem.set_access(PageId(page), Access::Read);
            if diff.is_empty() {
                continue;
            }
            by_home
                .entry(self.home_of(page))
                .or_default()
                .push((page, diff));
        }
        let mut homes: Vec<_> = by_home.into_iter().collect();
        homes.sort_by_key(|(h, _)| *h);
        self.outstanding = 0;
        let mut local_done = true;
        for (home, diffs) in homes {
            let flush = self.next_flush;
            self.next_flush += 1;
            if home == self.me {
                // We are the home: merge + propagate directly.
                if !self.home_flush(io, mem, self.me, flush, diffs) {
                    // Track our own flush like a remote one; FlushAck is
                    // synthesized when the last member acks.
                    self.outstanding += 1;
                    local_done = false;
                }
            } else {
                io.send(home, ProtoMsg::DiffFlush { flush, diffs });
                self.outstanding += 1;
                local_done = false;
            }
        }
        local_done && self.outstanding == 0
    }

    fn on_message(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        msg: ProtoMsg,
        events: &mut Vec<ProtoEvent>,
    ) {
        let page_size = self.layout.geometry.page_size();
        match msg {
            ProtoMsg::FetchReq { page } => {
                self.copyset.entry(page).or_default().insert(from);
                let data = mem
                    .page_bytes(PageId(page))
                    .expect("home must hold master")
                    .to_vec()
                    .into_boxed_slice();
                io.send(from, ProtoMsg::FetchRep { page, data, seq: 0 });
            }
            ProtoMsg::FetchRep { page, data, .. } => {
                let (p, write) = self.pending_fetch.take().expect("unsolicited fetch");
                assert_eq!(p, page);
                mem.install(PageId(page), data, Access::Read);
                if write {
                    self.make_twin(mem, page);
                }
                events.push(ProtoEvent::PageReady(PageId(page)));
            }
            // Diffs that do not fit a page are dropped unapplied and
            // unacked, as a datagram that fails `decode` is.
            ProtoMsg::DiffFlush { diffs, .. } | ProtoMsg::DiffApply { diffs, .. }
                if !diffs.iter().all(|(_, d)| d.fits(page_size)) => {}
            ProtoMsg::DiffFlush { flush, diffs } => {
                if self.home_flush(io, mem, from, flush, diffs) {
                    io.send(from, ProtoMsg::FlushAck { flush });
                }
            }
            ProtoMsg::DiffApply { flush, home, diffs } => {
                self.apply_diffs(mem, &diffs);
                io.send(home, ProtoMsg::DiffApplyAck { flush });
            }
            ProtoMsg::DiffApplyAck { flush } => {
                let (writer, remaining) = self
                    .inflight
                    .get_mut(&flush)
                    .map(|e| {
                        e.1 -= 1;
                        *e
                    })
                    .expect("ack for unknown flush");
                if remaining == 0 {
                    self.inflight.remove(&flush);
                    if writer == self.me {
                        // Our own flush at our own home.
                        self.flush_acked(events);
                    } else {
                        io.send(writer, ProtoMsg::FlushAck { flush });
                    }
                }
            }
            ProtoMsg::FlushAck { .. } => self.flush_acked(events),
            other => {
                panic!(
                    "erc got unexpected message {}",
                    dsm_net::Payload::kind(&other)
                )
            }
        }
    }
}

impl Erc {
    fn flush_acked(&mut self, events: &mut Vec<ProtoEvent>) {
        assert!(self.outstanding > 0, "stray flush ack");
        self.outstanding -= 1;
        if self.outstanding == 0 {
            events.push(ProtoEvent::FlushDone);
        }
    }
}
