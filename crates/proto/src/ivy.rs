//! IVY-style write-invalidate sequential consistency (Li & Hudak),
//! with the three classic manager schemes:
//!
//! * **Central** — one node (0) is the manager for every page.
//! * **Fixed** — page p's manager is its home node (round-robin or
//!   block, per the layout).
//! * **Dynamic** — no manager: every node keeps a *probable owner* hint
//!   per page, requests are forwarded along the hint chain, and hints
//!   are compressed toward the real owner as requests flow.
//!
//! Invariants (checked by tests): at any quiescent point each page has
//! exactly one owner; at most one node has write access; all read
//! copies are registered in the owner's/manager's copyset.
//!
//! Fault transactions on a page are serialized — by an entry lock at
//! the manager (central/fixed) or by the owner + in-flight deferral
//! (dynamic). Under the manager schemes the requester *confirms* the
//! transaction after performing its access so the manager can admit the
//! next request without starving the current one.

use crate::api::{BatchingIo, ProtoEvent, ProtoIo, Protocol};
use crate::msg::ProtoMsg;
use dsm_mem::{
    Access, Directory, FrameTable, NodeSet, PageId, PageMap, PageSet, PendingReq, SpaceLayout,
};
use dsm_net::NodeId;

/// Which of Li & Hudak's manager schemes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerScheme {
    Central,
    Fixed,
    Dynamic,
}

/// One in-flight local fault.
#[derive(Debug)]
struct PendingFault {
    write: bool,
    /// Invalidation acks still outstanding.
    need_acks: u32,
    acks: u32,
    /// Page copy / ownership grant has arrived.
    got_grant: bool,
    /// An invalidation raced past the copy in flight (jittery
    /// networks); the copy must be re-requested on arrival.
    poisoned: bool,
    /// A read-ahead fault issued alongside a demand fault. Confirms
    /// immediately on arrival (manager schemes) instead of waiting for
    /// op retirement, so a blocked demand access never holds another
    /// page's manager entry locked (no hold-and-wait).
    prefetch: bool,
}

/// IVY protocol state for one node.
pub struct Ivy {
    scheme: ManagerScheme,
    layout: SpaceLayout,
    me: NodeId,
    /// Manager-side directory (central: node 0 only; fixed: own pages).
    dir: Directory,
    /// Pages this node currently owns.
    owned: PageSet<usize>,
    /// Dynamic scheme: owner-held copysets for owned pages.
    copyset: PageMap<usize, NodeSet>,
    /// Dynamic scheme: probable-owner hints (default: the page's home).
    prob_owner: PageMap<usize, NodeId>,
    /// In-flight local faults by page. At most one *write* fault exists
    /// at a time (the demand fault of a write op); several concurrent
    /// *read* faults coexist when the runtime batches a demand read with
    /// prefetches.
    pending: PageMap<usize, PendingFault>,
    /// Manager schemes: pages whose transactions must be confirmed once
    /// the local access retires (one entry per faulted page of the
    /// current op), each with its write flag.
    unconfirmed: Vec<(usize, bool)>,
    /// Dynamic scheme: pages whose ownership arrived but whose local
    /// access hasn't retired — incoming requests are deferred.
    defer: PageSet<usize>,
    /// Dynamic scheme: requests deferred per page.
    queued: PageMap<usize, Vec<(NodeId, bool)>>,
}

impl Ivy {
    pub fn new(scheme: ManagerScheme, me: NodeId, layout: SpaceLayout) -> Self {
        let mut owned = PageSet::default();
        for p in layout.pages_of(me) {
            owned.insert(p.0);
        }
        Ivy {
            scheme,
            layout,
            me,
            dir: Directory::new(),
            owned,
            copyset: PageMap::default(),
            prob_owner: PageMap::default(),
            pending: PageMap::default(),
            unconfirmed: Vec::new(),
            defer: PageSet::default(),
            queued: PageMap::default(),
        }
    }

    fn manager_of(&self, page: usize) -> NodeId {
        match self.scheme {
            ManagerScheme::Central => NodeId(0),
            ManagerScheme::Fixed => self.layout.home_of(PageId(page)),
            ManagerScheme::Dynamic => unreachable!("dynamic scheme has no manager"),
        }
    }

    fn prob_owner_of(&self, page: usize) -> NodeId {
        self.prob_owner
            .get(&page)
            .copied()
            .unwrap_or_else(|| self.layout.home_of(PageId(page)))
    }

    /// Owner-side: make sure the frame exists (first touch of a page at
    /// its initial owner).
    fn ensure_frame(&self, mem: &mut FrameTable, page: usize) {
        if !mem.holds(PageId(page)) {
            mem.install_zeroed(PageId(page), Access::Write);
        }
    }

    fn start_fault(&mut self, page: usize, write: bool, prefetch: bool) {
        if write {
            assert!(
                self.pending.is_empty(),
                "{} write fault on p{page} while other faults are pending",
                self.me
            );
        } else {
            assert!(
                !self.pending.contains_key(&page),
                "{} read fault on p{page} while a fault on it is pending",
                self.me
            );
        }
        self.pending.insert(
            page,
            PendingFault {
                write,
                need_acks: 0,
                acks: 0,
                got_grant: false,
                poisoned: false,
                prefetch,
            },
        );
    }

    fn maybe_finish_write(
        &mut self,
        mem: &mut FrameTable,
        page: usize,
        events: &mut Vec<ProtoEvent>,
    ) {
        let done = matches!(
            self.pending.get(&page),
            Some(p) if p.write && p.got_grant && p.acks == p.need_acks
        );
        if done {
            self.pending.remove(&page);
            mem.set_access(PageId(page), Access::Write);
            events.push(ProtoEvent::PageReady(PageId(page)));
        }
    }

    /// Requester-side transaction completion under the manager schemes:
    /// tell the manager (possibly locally) so it can admit the next
    /// queued request.
    fn confirm(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        write: bool,
        events: &mut Vec<ProtoEvent>,
    ) {
        let mgr = self.manager_of(page);
        let owner = if write { self.me } else { NodeId(0) };
        if mgr == self.me {
            self.mgr_confirm(io, mem, page, owner, self.me, write, events);
        } else {
            io.send(mgr, ProtoMsg::Confirm { page, owner, write });
        }
    }

    // ================= manager-side (central / fixed) =================

    /// Dispatch a request at the manager (possibly the local node).
    fn mgr_request(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        write: bool,
        events: &mut Vec<ProtoEvent>,
    ) {
        let home = self.layout.home_of(PageId(page));
        let entry = self.dir.entry_mut(page, home);
        if entry.locked {
            entry.pending.push(PendingReq {
                from: requester,
                write,
            });
            return;
        }
        entry.locked = true;
        let owner = entry.owner;
        if write {
            // Invalidate every copy except the requester's and the
            // owner's (the owner's goes away with the transfer).
            let to_inval: Vec<NodeId> = entry
                .copyset
                .iter()
                .filter(|&n| n != requester && n != owner)
                .collect();
            let ninval = to_inval.len() as u32;
            for n in to_inval {
                if n == self.me {
                    // Manager holds a copy: ack the requester, then
                    // invalidate locally (see `Inval`).
                    io.send(requester, ProtoMsg::InvalAck { page });
                    mem.invalidate(PageId(page));
                } else {
                    io.send(
                        n,
                        ProtoMsg::Inval {
                            page,
                            new_owner: requester,
                        },
                    );
                }
            }
            if owner == requester {
                // Upgrade: the owner only lacks write permission.
                self.send_or_local_own(io, mem, page, requester, None, ninval, events);
            } else if owner == self.me {
                // Manager is the owner: hand over data + ownership.
                self.hand_over(io, mem, page, requester, ninval);
            } else {
                io.send(
                    owner,
                    ProtoMsg::FwdWrite {
                        page,
                        requester,
                        ninval,
                    },
                );
            }
        } else {
            debug_assert_ne!(owner, requester, "owner cannot read-fault");
            if owner == self.me {
                self.ensure_frame(mem, page);
                mem.set_access(PageId(page), Access::Read);
                let data = mem
                    .page_bytes(PageId(page))
                    .unwrap()
                    .to_vec()
                    .into_boxed_slice();
                self.send_or_local_read(io, mem, page, requester, data, events);
            } else {
                io.send(owner, ProtoMsg::FwdRead { page, requester });
            }
        }
    }

    fn send_or_local_read(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        data: Box<[u8]>,
        events: &mut Vec<ProtoEvent>,
    ) {
        if requester == self.me {
            self.recv_page_read(io, mem, page, data, events);
        } else {
            io.send(requester, ProtoMsg::PageRead { page, data });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_or_local_own(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        data: Option<Box<[u8]>>,
        ninval: u32,
        events: &mut Vec<ProtoEvent>,
    ) {
        if requester == self.me {
            self.recv_page_own(io, mem, page, data, ninval, None, events);
        } else {
            io.send(
                requester,
                ProtoMsg::PageOwn {
                    page,
                    data,
                    ninval,
                    copyset: None,
                },
            );
        }
    }

    /// The owner's half of a remote write fault under the manager
    /// schemes: send `requester` the page's bytes and ownership, then
    /// revoke the local copy. Answer first, revoke after: the copy has
    /// already stopped the program's stores (a writable view drops to
    /// `None` with it), so in between the program can only read, and
    /// the revoke still runs before this node handles anything else.
    fn hand_over(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        ninval: u32,
    ) {
        self.ensure_frame(mem, page);
        let data = mem.hand_out(PageId(page));
        self.owned.remove(&page);
        io.send(
            requester,
            ProtoMsg::PageOwn {
                page,
                data: Some(data),
                ninval,
                copyset: None,
            },
        );
        mem.invalidate(PageId(page));
    }

    /// Manager-side transaction completion.
    #[allow(clippy::too_many_arguments)]
    fn mgr_confirm(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        new_owner: NodeId,
        requester: NodeId,
        write: bool,
        events: &mut Vec<ProtoEvent>,
    ) {
        let home = self.layout.home_of(PageId(page));
        let entry = self.dir.entry_mut(page, home);
        debug_assert!(entry.locked, "confirm on unlocked entry p{page}");
        if write {
            entry.owner = new_owner;
            entry.copyset.clear();
            entry.copyset.insert(new_owner);
        } else {
            entry.copyset.insert(requester);
        }
        entry.locked = false;
        if !entry.pending.is_empty() {
            let next = entry.pending.remove(0);
            self.mgr_request(io, mem, page, next.from, next.write, events);
        }
    }

    // ================= requester-side =================

    fn recv_page_read(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        data: Box<[u8]>,
        events: &mut Vec<ProtoEvent>,
    ) {
        let (poisoned, prefetch) = {
            let pend = self
                .pending
                .get_mut(&page)
                .expect("PageRead with no pending fault");
            assert!(!pend.write);
            (std::mem::take(&mut pend.poisoned), pend.prefetch)
        };
        if poisoned {
            // The copy we were sent was invalidated in flight; retry.
            self.reissue(io, page, false);
            return;
        }
        mem.install(PageId(page), data, Access::Read);
        self.pending.remove(&page);
        match self.scheme {
            ManagerScheme::Dynamic => {}
            _ if prefetch => self.confirm(io, mem, page, false, events),
            _ => self.unconfirmed.push((page, false)),
        }
        events.push(ProtoEvent::PageReady(PageId(page)));
    }

    #[allow(clippy::too_many_arguments)]
    fn recv_page_own(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        data: Option<Box<[u8]>>,
        ninval: u32,
        copyset: Option<NodeSet>,
        events: &mut Vec<ProtoEvent>,
    ) {
        {
            let pend = self
                .pending
                .get_mut(&page)
                .expect("PageOwn with no pending fault");
            assert!(pend.write);
            pend.got_grant = true;
        }
        if let Some(data) = data {
            mem.install(PageId(page), data, Access::Read); // upgraded on completion
        } else {
            debug_assert!(mem.holds(PageId(page)), "upgrade without copy");
        }
        self.owned.insert(page);
        match self.scheme {
            ManagerScheme::Dynamic => {
                // New owner sends the invalidations itself, using the
                // copyset that travelled with ownership.
                let cs = copyset.unwrap_or_default();
                let mut n = 0;
                for member in cs.iter().filter(|&m| m != self.me) {
                    io.send(
                        member,
                        ProtoMsg::Inval {
                            page,
                            new_owner: self.me,
                        },
                    );
                    n += 1;
                }
                let pend = self.pending.get_mut(&page).unwrap();
                pend.need_acks = n;
                self.copyset.insert(page, NodeSet::singleton(self.me));
                self.prob_owner.insert(page, self.me);
                self.defer.insert(page);
            }
            _ => {
                let pend = self.pending.get_mut(&page).unwrap();
                pend.need_acks = ninval;
                self.unconfirmed.push((page, true));
            }
        }
        self.maybe_finish_write(mem, page, events);
    }

    /// Route a read request for `page` (pending fault already started):
    /// to the probable owner (dynamic), the remote manager, or the
    /// local manager dispatch.
    fn issue_read_request(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: usize) {
        match self.scheme {
            ManagerScheme::Dynamic => {
                io.send(self.prob_owner_of(page), ProtoMsg::ReadReq { page });
            }
            _ => {
                let mgr = self.manager_of(page);
                if mgr == self.me {
                    let mut events = Vec::new();
                    self.mgr_request(io, mem, page, self.me, false, &mut events);
                    // Local dispatch can't complete synchronously: the
                    // owner is remote (we'd have read access otherwise).
                    debug_assert!(events.is_empty());
                } else {
                    io.send(mgr, ProtoMsg::ReadReq { page });
                }
            }
        }
    }

    fn reissue(&mut self, io: &mut dyn ProtoIo, page: usize, write: bool) {
        match self.scheme {
            ManagerScheme::Dynamic => {
                let target = self.prob_owner_of(page);
                let msg = if write {
                    ProtoMsg::WriteReq { page }
                } else {
                    ProtoMsg::ReadReq { page }
                };
                io.send(target, msg);
            }
            _ => {
                let mgr = self.manager_of(page);
                let msg = if write {
                    ProtoMsg::WriteReq { page }
                } else {
                    ProtoMsg::ReadReq { page }
                };
                io.send(mgr, msg);
            }
        }
    }

    // ================= dynamic-scheme owner side =================

    /// Handle a (possibly forwarded) request under the dynamic scheme.
    fn dyn_request(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        write: bool,
    ) {
        // Queue requests when we are (or are about to become) the owner
        // but the local access hasn't retired: ownership is in flight to
        // us, so forwarding would orbit the hint graph forever.
        let becoming_owner = self.pending.get(&page).is_some_and(|p| p.write);
        if self.defer.contains(&page) || becoming_owner {
            self.queued
                .entry(page)
                .or_default()
                .push((requester, write));
            return;
        }
        if self.owned.contains(&page) {
            self.ensure_frame(mem, page);
            if write {
                // Transfer ownership + copyset; the new owner
                // invalidates the copies.
                let mut cs = self.copyset.remove(&page).unwrap_or_default();
                cs.remove(requester);
                cs.remove(self.me);
                let data = mem.hand_out(PageId(page));
                self.owned.remove(&page);
                self.prob_owner.insert(page, requester);
                io.send(
                    requester,
                    ProtoMsg::PageOwn {
                        page,
                        data: Some(data),
                        ninval: 0,
                        copyset: Some(cs),
                    },
                );
                // Answer, then revoke (see `hand_over`).
                mem.invalidate(PageId(page));
            } else {
                mem.set_access(PageId(page), Access::Read);
                self.copyset
                    .entry(page)
                    .or_insert_with(|| NodeSet::singleton(self.me))
                    .insert(requester);
                let data = mem
                    .page_bytes(PageId(page))
                    .unwrap()
                    .to_vec()
                    .into_boxed_slice();
                io.send(requester, ProtoMsg::PageRead { page, data });
            }
        } else {
            // Forward along the probable-owner chain; compress the hint
            // toward the writer (the eventual new owner).
            let target = self.prob_owner_of(page);
            debug_assert_ne!(target, self.me, "hint loop at non-owner");
            let msg = if write {
                self.prob_owner.insert(page, requester);
                ProtoMsg::FwdWrite {
                    page,
                    requester,
                    ninval: 0,
                }
            } else {
                ProtoMsg::FwdRead { page, requester }
            };
            io.send(target, msg);
        }
    }
}

impl Protocol for Ivy {
    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        debug_assert!(!pages.is_empty());
        let mut bio = BatchingIo::new(io);
        let demand = pages[0].0;
        let resolved = if self.owned.contains(&demand) {
            // First touch of an owned page.
            self.ensure_frame(mem, demand);
            debug_assert!(mem.access(pages[0]).allows_read());
            true
        } else {
            self.start_fault(demand, false, false);
            self.issue_read_request(&mut bio, mem, demand);
            false
        };
        let mut issued = Vec::new();
        if !resolved {
            for &pg in &pages[1..] {
                let p = pg.0;
                if self.owned.contains(&p) || self.pending.contains_key(&p) {
                    continue;
                }
                self.start_fault(p, false, true);
                self.issue_read_request(&mut bio, mem, p);
                issued.push(pg);
            }
        }
        bio.flush();
        (resolved, issued)
    }

    fn write_fault(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        let p = page.0;
        if self.owned.contains(&p) {
            self.ensure_frame(mem, p);
            if mem.access(page).allows_write() {
                return true;
            }
            // Owned with read-only copy: shared copies must die first.
            match self.scheme {
                ManagerScheme::Dynamic => {
                    let cs = self.copyset.get(&p).cloned().unwrap_or_default();
                    let members: Vec<NodeId> = cs.iter().filter(|&m| m != self.me).collect();
                    if members.is_empty() {
                        mem.set_access(page, Access::Write);
                        self.copyset.insert(p, NodeSet::singleton(self.me));
                        return true;
                    }
                    self.start_fault(p, true, false);
                    {
                        let pend = self.pending.get_mut(&p).unwrap();
                        pend.got_grant = true;
                        pend.need_acks = members.len() as u32;
                    }
                    for m in members {
                        io.send(
                            m,
                            ProtoMsg::Inval {
                                page: p,
                                new_owner: self.me,
                            },
                        );
                    }
                    self.copyset.insert(p, NodeSet::singleton(self.me));
                    self.defer.insert(p);
                    false
                }
                _ => {
                    self.start_fault(p, true, false);
                    let mgr = self.manager_of(p);
                    if mgr == self.me {
                        let mut events = Vec::new();
                        self.mgr_request(io, mem, p, self.me, true, &mut events);
                        if let Some(ProtoEvent::PageReady(_)) = events.first() {
                            // Zero invalidations: completed in place.
                            return true;
                        }
                    } else {
                        io.send(mgr, ProtoMsg::WriteReq { page: p });
                    }
                    false
                }
            }
        } else {
            self.start_fault(p, true, false);
            match self.scheme {
                ManagerScheme::Dynamic => {
                    io.send(self.prob_owner_of(p), ProtoMsg::WriteReq { page: p });
                }
                _ => {
                    let mgr = self.manager_of(p);
                    if mgr == self.me {
                        let mut events = Vec::new();
                        self.mgr_request(io, mem, p, self.me, true, &mut events);
                        if let Some(ProtoEvent::PageReady(_)) = events.first() {
                            return true;
                        }
                    } else {
                        io.send(mgr, ProtoMsg::WriteReq { page: p });
                    }
                }
            }
            false
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
            ProtoMsg::ReadReq { page } => match self.scheme {
                ManagerScheme::Dynamic => self.dyn_request(io, mem, page, from, false),
                _ => self.mgr_request(io, mem, page, from, false, events),
            },
            ProtoMsg::WriteReq { page } => match self.scheme {
                ManagerScheme::Dynamic => self.dyn_request(io, mem, page, from, true),
                _ => self.mgr_request(io, mem, page, from, true, events),
            },
            ProtoMsg::FwdRead { page, requester } => match self.scheme {
                ManagerScheme::Dynamic => self.dyn_request(io, mem, page, requester, false),
                _ => {
                    // Owner: serve a read copy.
                    self.ensure_frame(mem, page);
                    debug_assert!(self.owned.contains(&page), "FwdRead to non-owner");
                    mem.set_access(PageId(page), Access::Read);
                    let data = mem
                        .page_bytes(PageId(page))
                        .unwrap()
                        .to_vec()
                        .into_boxed_slice();
                    self.send_or_local_read(io, mem, page, requester, data, events);
                }
            },
            ProtoMsg::FwdWrite {
                page,
                requester,
                ninval,
            } => match self.scheme {
                ManagerScheme::Dynamic => self.dyn_request(io, mem, page, requester, true),
                _ => {
                    // Owner: ship data + ownership.
                    debug_assert!(self.owned.contains(&page), "FwdWrite to non-owner");
                    self.hand_over(io, mem, page, requester, ninval);
                }
            },
            ProtoMsg::PageRead { page, data } => self.recv_page_read(io, mem, page, data, events),
            ProtoMsg::PageOwn {
                page,
                data,
                ninval,
                copyset,
            } => self.recv_page_own(io, mem, page, data, ninval, copyset, events),
            ProtoMsg::Inval { page, new_owner } => {
                // A racing invalidation may hit while our own copy is in
                // flight (jittery networks); poison the pending fault so
                // the stale copy is rejected on arrival.
                if let Some(pend) = self.pending.get_mut(&page) {
                    if !pend.write && !pend.got_grant {
                        pend.poisoned = true;
                    }
                }
                if self.scheme == ManagerScheme::Dynamic {
                    self.prob_owner.insert(page, new_owner);
                }
                // Ack, then revoke: a read copy takes no store, so the
                // program can only read meanwhile, and the revoke ends
                // this handler, before the node handles anything the
                // new owner does with the page.
                io.send(new_owner, ProtoMsg::InvalAck { page });
                mem.invalidate(PageId(page));
            }
            ProtoMsg::InvalAck { page } => {
                let pend = self
                    .pending
                    .get_mut(&page)
                    .expect("InvalAck with no pending fault");
                pend.acks += 1;
                self.maybe_finish_write(mem, page, events);
            }
            ProtoMsg::Confirm { page, owner, write } => {
                self.mgr_confirm(io, mem, page, owner, from, write, events);
            }
            other => panic!(
                "ivy got unexpected message {}",
                dsm_net::Payload::kind(&other)
            ),
        }
    }

    fn op_retired(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        match self.scheme {
            ManagerScheme::Dynamic => {
                // Release deferred requests for pages whose local access
                // has now been performed. Sorted: a hash set's
                // iteration order is nobody's contract.
                let mut pages: Vec<usize> = self.defer.drain().collect();
                pages.sort_unstable();
                for page in pages {
                    if let Some(reqs) = self.queued.remove(&page) {
                        for (requester, write) in reqs {
                            self.dyn_request(io, mem, page, requester, write);
                        }
                    }
                }
            }
            _ => {
                for (page, write) in std::mem::take(&mut self.unconfirmed) {
                    let mut events = Vec::new();
                    self.confirm(io, mem, page, write, &mut events);
                    debug_assert!(events.is_empty());
                }
            }
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
    fn initial_ownership_follows_layout() {
        let layout = SpaceLayout::new(PageGeometry::new(256), 256 * 4, Placement::Cyclic, 2);
        let ivy = Ivy::new(ManagerScheme::Fixed, NodeId(0), layout);
        assert!(ivy.owned.contains(&0));
        assert!(!ivy.owned.contains(&1));
        assert!(ivy.owned.contains(&2));
    }

    #[test]
    fn owner_first_touch_is_local() {
        let layout = SpaceLayout::new(PageGeometry::new(256), 256 * 2, Placement::Cyclic, 2);
        let mut ivy = Ivy::new(ManagerScheme::Fixed, NodeId(0), layout);
        let mut mem = FrameTable::new(layout.geometry);
        // A local first touch needs no message.
        let mut io = FakeIo::new(CostModel::lan_1992());
        assert!(ivy.read_fault_batch(&mut io, &mut mem, &[PageId(0)]).0);
        assert!(mem.access(PageId(0)).allows_write());
        assert!(ivy.write_fault(&mut io, &mut mem, PageId(0)));
        assert!(io.sent.is_empty());
    }
}
