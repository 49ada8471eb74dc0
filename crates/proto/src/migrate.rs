//! Single-copy page migration — the simplest (and usually worst) DSM
//! policy, kept as the baseline the replication protocols are measured
//! against.
//!
//! Every page has exactly one copy. Any fault (read or write) migrates
//! the page, data and all, to the faulting node. The page's home tracks
//! the current holder and serializes transfers.

use crate::api::{BatchingIo, ProtoEvent, ProtoIo, Protocol};
use crate::msg::ProtoMsg;
use dsm_mem::{Access, FrameTable, PageId, PageMap, PageSet, SpaceLayout};
use dsm_net::NodeId;
use std::collections::VecDeque;

/// Home-side tracking for one page.
#[derive(Debug)]
struct HomeEntry {
    holder: NodeId,
    locked: bool,
    queue: VecDeque<NodeId>,
}

/// Migration protocol state for one node.
pub struct Migrate {
    layout: SpaceLayout,
    me: NodeId,
    home: PageMap<usize, HomeEntry>,
    /// Pages currently resident here.
    resident: PageSet<usize>,
    /// Local faults in flight: page → is-prefetch. Several coexist when
    /// the runtime batches a demand fault with read-ahead candidates.
    /// Prefetched pages confirm to their homes immediately on arrival
    /// (no hold-and-wait while the demand access is still blocked);
    /// demand pages confirm on op retirement as before.
    pending: PageMap<usize, bool>,
    /// Pages to confirm to their homes once the local access retires.
    unconfirmed: Vec<usize>,
}

impl Migrate {
    pub fn new(me: NodeId, layout: SpaceLayout) -> Self {
        let mut resident = PageSet::default();
        for p in layout.pages_of(me) {
            resident.insert(p.0);
        }
        Migrate {
            layout,
            me,
            home: PageMap::default(),
            resident,
            pending: PageMap::default(),
            unconfirmed: Vec::new(),
        }
    }

    fn home_of(&self, page: usize) -> NodeId {
        self.layout.home_of(PageId(page))
    }

    fn ensure_frame(&self, mem: &mut FrameTable, page: usize) {
        if !mem.holds(PageId(page)) {
            mem.install_zeroed(PageId(page), Access::Write);
        }
    }

    fn fault(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        prefetch: bool,
    ) -> bool {
        if self.resident.contains(&page) {
            self.ensure_frame(mem, page);
            return true;
        }
        assert!(
            !self.pending.contains_key(&page),
            "{} double fault on p{page}",
            self.me
        );
        self.pending.insert(page, prefetch);
        let home = self.home_of(page);
        if home == self.me {
            self.home_request(io, mem, page, self.me);
        } else {
            io.send(home, ProtoMsg::MigReq { page });
        }
        false
    }

    /// Home-side: dispatch or queue a migration request.
    fn home_request(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
    ) {
        let me = self.me;
        let entry = self.home.entry(page).or_insert_with(|| HomeEntry {
            holder: me,
            locked: false,
            queue: VecDeque::new(),
        });
        if entry.locked {
            entry.queue.push_back(requester);
            return;
        }
        entry.locked = true;
        let holder = entry.holder;
        debug_assert_ne!(holder, requester, "holder cannot fault");
        if holder == self.me {
            self.ensure_frame(mem, page);
            let data = mem.evict(PageId(page)).expect("holder must have the page");
            self.resident.remove(&page);
            io.send(requester, ProtoMsg::MigPage { page, data });
        } else {
            io.send(holder, ProtoMsg::MigFwd { page, requester });
        }
    }

    fn home_confirm(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        holder: NodeId,
    ) {
        let entry = self.home.get_mut(&page).expect("confirm for unknown page");
        debug_assert!(entry.locked);
        entry.holder = holder;
        entry.locked = false;
        if let Some(next) = entry.queue.pop_front() {
            self.home_request(io, mem, page, next);
        }
    }

    /// Holder-side transaction completion: tell the page's home
    /// (possibly locally) so it can admit the next queued request.
    fn confirm(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: usize) {
        let home = self.home_of(page);
        if home == self.me {
            self.home_confirm(io, mem, page, self.me);
        } else {
            io.send(
                home,
                ProtoMsg::MigConfirm {
                    page,
                    holder: self.me,
                },
            );
        }
    }
}

impl Protocol for Migrate {
    fn write_fault(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        self.fault(io, mem, page.0, false)
    }

    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        debug_assert!(!pages.is_empty());
        let mut bio = BatchingIo::new(io);
        let resolved = self.fault(&mut bio, mem, pages[0].0, false);
        let mut issued = Vec::new();
        if !resolved {
            for &pg in &pages[1..] {
                let p = pg.0;
                if self.resident.contains(&p) || self.pending.contains_key(&p) {
                    continue;
                }
                let r = self.fault(&mut bio, mem, p, true);
                debug_assert!(!r, "non-resident page resolved synchronously");
                issued.push(pg);
            }
        }
        bio.flush();
        (resolved, issued)
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
            ProtoMsg::MigReq { page } => self.home_request(io, mem, page, from),
            ProtoMsg::MigFwd { page, requester } => {
                self.ensure_frame(mem, page);
                let data = mem.evict(PageId(page)).expect("forward to non-holder");
                self.resident.remove(&page);
                io.send(requester, ProtoMsg::MigPage { page, data });
            }
            ProtoMsg::MigPage { page, data } => {
                let prefetch = self.pending.remove(&page).expect("unexpected page arrival");
                mem.install(PageId(page), data, Access::Write);
                self.resident.insert(page);
                if prefetch {
                    // Prefetched migrations unlock the home entry right
                    // away; waiting for the (blocked) demand access to
                    // retire would reintroduce hold-and-wait.
                    self.confirm(io, mem, page);
                } else {
                    self.unconfirmed.push(page);
                }
                events.push(ProtoEvent::PageReady(PageId(page)));
            }
            ProtoMsg::MigConfirm { page, holder } => {
                self.home_confirm(io, mem, page, holder);
            }
            other => {
                panic!(
                    "migrate got unexpected message {}",
                    dsm_net::Payload::kind(&other)
                )
            }
        }
    }

    fn op_retired(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        for page in std::mem::take(&mut self.unconfirmed) {
            self.confirm(io, mem, page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_io::FakeIo;
    use dsm_mem::{PageGeometry, Placement};
    use dsm_net::CostModel;

    #[test]
    fn resident_pages_never_fault() {
        let layout = SpaceLayout::new(PageGeometry::new(256), 256 * 4, Placement::Cyclic, 2);
        let mut m = Migrate::new(NodeId(1), layout);
        let mut mem = FrameTable::new(layout.geometry);
        // Resident pages need no message.
        let mut io = FakeIo::new(CostModel::lan_1992());
        assert!(m.read_fault_batch(&mut io, &mut mem, &[PageId(1)]).0);
        assert!(m.write_fault(&mut io, &mut mem, PageId(3)));
        assert!(mem.access(PageId(1)).allows_write());
        assert!(io.sent.is_empty());
    }
}
