//! One-sided `rdma` protocol: home-based page ownership with
//! NIC-served reads.
//!
//! Every page has a *home* holding the master copy, a copyset of
//! registered readers, and at most one checked-out writer. Remote read
//! faults travel as one-sided [`ProtoMsg::RdmaRead`] doorbells: on
//! fabrics with one-sided support
//! ([`dsm_net::CostModel::supports_one_sided`]) the home's NIC serves
//! the master bytes without scheduling the home's app or protocol
//! thread; on older fabrics (or under a fault plan's reliable
//! transport) the same messages arrive as ordinary software deliveries
//! with identical reply logic, so one binary serves every era.
//!
//! Consistency argument (bit-identical to IVY semantics): the NIC
//! serves a read only while the page is *quiescent* — no checked-out
//! writer and no open write transaction. A served copy is registered
//! in the copyset, and every subsequent write grant is preceded by
//! synchronous invalidation of the whole copyset (the lease revoke),
//! so a one-sided copy is always either current or invalidated before
//! the next write performs. A copy that is invalidated while its fetch
//! is still airborne is discarded on arrival and refetched two-sided.
//! Writes fall back to home-mediated invalidation: recall the writer,
//! invalidate the readers, grant exclusivity — single-writer /
//! multi-reader, sequentially consistent. Homes release their own
//! write leases at synchronization points so that barrier-phased
//! sharing (write own partition, barrier, read neighbors') hits the
//! one-sided path instead of stalling behind the home's stale lease.
//!
//! Contended handoffs are *direct-forwarded*: a recall names the
//! requester it was issued for, and the recalled writer ships the page
//! straight to that requester — a read copy ([`ProtoMsg::RdmaData`])
//! or ownership ([`ProtoMsg::PageOwn`]) — while the writeback travels
//! to the home concurrently, saving the home hop per handoff. This
//! preserves sequential consistency: the home's transaction stays open
//! until the writeback lands, so no later write grant can miss the
//! directly served reader (it is registered in the copyset with the
//! writeback, before the transaction closes), and a directly granted
//! *write* needs no invalidation round because the copyset is provably
//! empty for the whole previous checkout (it was invalidated before
//! that grant and read service queues while a writer is out).
//!
//! Crash fallback (documented, asserted in `tests/crash_recovery.rs`):
//! the protocol keeps no replication, so a crashed home takes its
//! masters and directory with it — requests to it starve and the
//! runtime's watchdog flags the run. Recovery reinstalls cold zeroed
//! masters.

use crate::api::{ProtoEvent, ProtoIo, Protocol};
use crate::msg::{Piggy, ProtoMsg};
use dsm_mem::{Access, FrameTable, NodeSet, PageId, PageMap, SpaceLayout};
use dsm_net::NodeId;

/// What the open home-side transaction is working toward.
#[derive(Debug, Clone, Copy)]
enum Goal {
    /// Recall the writer so queued readers can be served.
    Read,
    /// Grant exclusive rights to this requester.
    Write(NodeId),
}

/// One open home-side transaction (at most one per page).
#[derive(Debug)]
struct Txn {
    goal: Goal,
    /// A recall is outstanding; invalidation (write goal) or reader
    /// service (read goal) starts when the writeback lands.
    awaiting_writeback: bool,
    /// Invalidation acks still outstanding (write goal only).
    pending_acks: u32,
    /// The grant must carry the master bytes (the requester holds no
    /// registered copy).
    grant_data: bool,
    /// Requester the recalled writer serves directly (`None` for the
    /// legacy writeback-only recall, i.e. the home's own parked op).
    direct: Option<NodeId>,
}

/// Home-side directory entry for one page.
#[derive(Debug, Default)]
struct HomePage {
    /// Current exclusive writer; `Some(me)` when the home itself holds
    /// write rights on its master.
    writer: Option<NodeId>,
    /// Readers with valid copies (never includes the home).
    copyset: NodeSet,
    txn: Option<Txn>,
    /// Queued read requests (`me` for the home's own parked read).
    waiting_readers: Vec<NodeId>,
    /// Queued write requests (`me` for the home's own parked write).
    waiting_writers: Vec<NodeId>,
}

/// One-sided RDMA protocol state for one node.
pub struct Rdma {
    layout: SpaceLayout,
    me: NodeId,
    home: PageMap<usize, HomePage>,
    /// Requester-side read fetches in flight; the flag marks fetches
    /// whose copy was invalidated while airborne (discard on arrival).
    fetches: PageMap<usize, bool>,
    /// Remote write fault in flight (one at a time by runtime contract).
    pending_write: Option<usize>,
    /// Recalls that arrived before the grant they chase (delivery
    /// jitter can reorder same-link messages): answered at
    /// `op_retired`, once the granted write has performed. Each entry
    /// keeps the recall's `(page, requester, write)` payload so the
    /// deferred answer still direct-forwards.
    deferred_recalls: Vec<(usize, NodeId, bool)>,
    /// Pages whose waiter queues must be pumped once the local op
    /// retires: a local grant/serve must perform its access before the
    /// home hands the page onward, or the grant would be revoked under
    /// the parked op.
    pump_after_retire: Vec<usize>,
}

/// Next home-side step for a page, decided under one borrow.
enum Act {
    Stop,
    /// The home itself holds write rights: downgrade to Read in place.
    Downgrade,
    /// Recall the checked-out writer for queued readers.
    Recall(NodeId),
    /// Serve all queued readers from the (current) master.
    Serve(Vec<NodeId>),
    /// Open a write transaction for the next queued writer.
    StartWrite(NodeId),
}

impl Rdma {
    pub fn new(me: NodeId, layout: SpaceLayout) -> Self {
        Rdma {
            layout,
            me,
            home: PageMap::default(),
            fetches: PageMap::default(),
            pending_write: None,
            deferred_recalls: Vec::new(),
            pump_after_retire: Vec::new(),
        }
    }

    fn hp(&mut self, page: usize) -> &mut HomePage {
        self.home.entry(page).or_default()
    }

    fn master(mem: &FrameTable, page: usize) -> Box<[u8]> {
        mem.page_bytes(PageId(page))
            .expect("home retains the master frame")
            .to_vec()
            .into_boxed_slice()
    }

    /// Serve a (possibly multi-page) read request against the master
    /// copies; shared by the NIC and software delivery paths. A page
    /// with a checked-out writer or an open write transaction cannot be
    /// served one-sided — handing out its bytes could bypass the
    /// invalidation a concurrent write is about to issue — so the NIC
    /// hands it off to the software handler: the reader queues and the
    /// pump recalls/serves it, exactly like a two-sided [`ReadReq`],
    /// with no NACK-and-retry legs on the wire.
    ///
    /// [`ReadReq`]: ProtoMsg::ReadReq
    fn serve_read(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        pages: Vec<usize>,
        events: &mut Vec<ProtoEvent>,
    ) {
        let mut reply = Vec::with_capacity(pages.len());
        let mut busy = Vec::new();
        for p in pages {
            debug_assert_eq!(
                self.layout.home_of(PageId(p)),
                self.me,
                "one-sided read routed to a non-home"
            );
            let hp = self.hp(p);
            if hp.writer.is_some() || hp.txn.is_some() {
                hp.waiting_readers.push(from);
                busy.push(p);
            } else {
                hp.copyset.insert(from);
                reply.push((p, Some(Self::master(mem, p))));
            }
        }
        if !reply.is_empty() {
            io.send_one_sided(from, ProtoMsg::RdmaData { pages: reply });
        }
        for p in busy {
            self.pump(io, mem, p, events);
        }
    }

    /// A read reply (one- or two-sided) for `page` landed at this
    /// requester.
    fn complete_fetch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        data: Option<Box<[u8]>>,
        events: &mut Vec<ProtoEvent>,
    ) {
        let stale = self
            .fetches
            .remove(&page)
            .expect("read reply without a pending fetch");
        match data {
            Some(bytes) if !stale => {
                mem.install(PageId(page), bytes, Access::Read);
                events.push(ProtoEvent::PageReady(PageId(page)));
            }
            _ => {
                // Invalidated while airborne: retry two-sided — the
                // home queues the request until the page quiesces, so
                // this cannot loop.
                self.fetches.insert(page, false);
                io.send(
                    self.layout.home_of(PageId(page)),
                    ProtoMsg::ReadReq { page },
                );
            }
        }
    }

    /// Drive the home-side state machine for `page` until it blocks on
    /// a message round-trip (or a parked local op; see
    /// [`Rdma::pump_after_retire`]). Readers are served before writers.
    fn pump(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        events: &mut Vec<ProtoEvent>,
    ) {
        let me = self.me;
        loop {
            let act = {
                let hp = self.hp(page);
                if hp.txn.is_some() {
                    Act::Stop
                } else if !hp.waiting_readers.is_empty() {
                    match hp.writer {
                        Some(w) if w == me => Act::Downgrade,
                        Some(w) => Act::Recall(w),
                        None => Act::Serve(std::mem::take(&mut hp.waiting_readers)),
                    }
                } else if !hp.waiting_writers.is_empty() {
                    Act::StartWrite(hp.waiting_writers.remove(0))
                } else {
                    Act::Stop
                }
            };
            match act {
                Act::Stop => return,
                Act::Downgrade => {
                    mem.set_access(PageId(page), Access::Read);
                    self.hp(page).writer = None;
                }
                Act::Recall(w) => {
                    // Direct forwarding: hand the first queued remote
                    // reader to the writer, which serves it while the
                    // writeback travels here concurrently. The home's
                    // own parked read keeps the legacy shape
                    // (requester = home, writeback only).
                    let direct = {
                        let hp = self.hp(page);
                        if hp.waiting_readers[0] == me {
                            None
                        } else {
                            Some(hp.waiting_readers.remove(0))
                        }
                    };
                    io.send(
                        w,
                        ProtoMsg::RdmaRecall {
                            page,
                            requester: direct.unwrap_or(me),
                            write: false,
                        },
                    );
                    self.hp(page).txn = Some(Txn {
                        goal: Goal::Read,
                        awaiting_writeback: true,
                        pending_acks: 0,
                        grant_data: false,
                        direct,
                    });
                    return;
                }
                Act::Serve(readers) => {
                    let mut local = false;
                    for r in readers {
                        if r == self.me {
                            debug_assert!(mem.access(PageId(page)).allows_read());
                            events.push(ProtoEvent::PageReady(PageId(page)));
                            local = true;
                        } else {
                            let data = Self::master(mem, page);
                            self.hp(page).copyset.insert(r);
                            io.send(r, ProtoMsg::PageRead { page, data });
                        }
                    }
                    if local {
                        // The parked local read must perform before the
                        // page moves on; resume at retirement.
                        self.pump_after_retire.push(page);
                        return;
                    }
                }
                Act::StartWrite(r) => {
                    if !self.start_write(io, mem, page, r, events) {
                        return;
                    }
                }
            }
        }
    }

    /// Open a write transaction for `requester`: recall the current
    /// writer, then invalidate readers, then grant. Returns true when
    /// the pump may keep going (grant completed to a remote requester).
    fn start_write(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        events: &mut Vec<ProtoEvent>,
    ) -> bool {
        let me = self.me;
        match self.hp(page).writer {
            Some(w) if w == me => {
                debug_assert_ne!(requester, self.me, "write fault while already the writer");
                mem.set_access(PageId(page), Access::Read);
                self.hp(page).writer = None;
            }
            Some(w) => {
                debug_assert_ne!(w, requester, "the current writer cannot write-fault");
                // The writer hands ownership straight to the requester
                // (unless the requester is the home itself, which
                // falls back to the writeback-only shape).
                let direct = (requester != me).then_some(requester);
                io.send(
                    w,
                    ProtoMsg::RdmaRecall {
                        page,
                        requester,
                        write: true,
                    },
                );
                self.hp(page).txn = Some(Txn {
                    goal: Goal::Write(requester),
                    awaiting_writeback: true,
                    pending_acks: 0,
                    grant_data: false,
                    direct,
                });
                return false;
            }
            None => {}
        }
        self.write_invals(io, mem, page, requester, events)
    }

    /// Invalidate every registered reader except the requester, then
    /// grant (immediately if there is nothing to invalidate).
    fn write_invals(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        events: &mut Vec<ProtoEvent>,
    ) -> bool {
        let (members, grant_data) = {
            let hp = self.hp(page);
            let members: Vec<NodeId> = hp.copyset.iter().filter(|&n| n != requester).collect();
            let grant_data = !hp.copyset.contains(requester);
            hp.copyset.clear();
            (members, grant_data)
        };
        if members.is_empty() {
            self.grant_write(io, mem, page, requester, grant_data, events)
        } else {
            for &m in &members {
                io.send(
                    m,
                    ProtoMsg::Inval {
                        page,
                        new_owner: requester,
                    },
                );
            }
            self.hp(page).txn = Some(Txn {
                goal: Goal::Write(requester),
                awaiting_writeback: false,
                pending_acks: members.len() as u32,
                grant_data,
                direct: None,
            });
            false
        }
    }

    /// Answer a recall: serve `requester` directly — a read copy
    /// ([`ProtoMsg::RdmaData`]) or ownership ([`ProtoMsg::PageOwn`])
    /// per `write` — while the freshly written page travels back to
    /// its home concurrently. A `requester` equal to the home is the
    /// legacy shape: writeback only, keep a read copy (the home
    /// re-registers us in the copyset when the writeback lands).
    fn answer_recall(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        write: bool,
    ) {
        debug_assert!(
            mem.access(PageId(page)).allows_write(),
            "recall answered for a page we do not hold exclusively"
        );
        let data = mem
            .page_bytes(PageId(page))
            .expect("checked above")
            .to_vec()
            .into_boxed_slice();
        let home = self.layout.home_of(PageId(page));
        if requester == home {
            mem.set_access(PageId(page), Access::Read);
        } else if write {
            // Ownership moves straight to the requester; our copy dies
            // with the checkout. No invalidation round is needed: every
            // registered copy was revoked before our own grant, and
            // read service queues while a writer is out, so the
            // copyset is empty for the whole checkout.
            io.send(
                requester,
                ProtoMsg::PageOwn {
                    page,
                    data: Some(data.clone()),
                    ninval: 0,
                    copyset: None,
                },
            );
            mem.invalidate(PageId(page));
        } else {
            // Serve the read copy directly; the home registers the
            // requester in the copyset when the writeback lands.
            io.send(
                requester,
                ProtoMsg::RdmaData {
                    pages: vec![(page, Some(data.clone()))],
                },
            );
            mem.set_access(PageId(page), Access::Read);
        }
        io.send(home, ProtoMsg::RdmaWriteBack { page, data });
    }

    /// Check the page out to `requester`. Returns true when the pump
    /// may keep going: safe for remote grants (FIFO links deliver the
    /// grant before any follow-up recall), not for local ones (the
    /// parked write has not performed yet).
    fn grant_write(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: usize,
        requester: NodeId,
        grant_data: bool,
        events: &mut Vec<ProtoEvent>,
    ) -> bool {
        self.hp(page).writer = Some(requester);
        if requester == self.me {
            mem.set_access(PageId(page), Access::Write);
            events.push(ProtoEvent::PageReady(PageId(page)));
            self.pump_after_retire.push(page);
            false
        } else {
            let data = if grant_data {
                Some(Self::master(mem, page))
            } else {
                None
            };
            // The master goes stale while checked out: unreadable even
            // to the home's own app.
            mem.invalidate(PageId(page));
            io.send(
                requester,
                ProtoMsg::PageOwn {
                    page,
                    data,
                    ninval: 0,
                    copyset: None,
                },
            );
            true
        }
    }
}

impl Protocol for Rdma {
    fn on_start(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        // Masters live at their homes, read-only: every write is
        // protocol-mediated so the copyset stays exact.
        for p in self.layout.pages_of(self.me) {
            mem.install_zeroed(p, Access::Read);
        }
    }

    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        debug_assert!(!pages.is_empty());
        let mut by_home: Vec<(NodeId, Vec<usize>)> = Vec::new();
        let mut issued = Vec::new();
        let mut resolved = false;
        for (i, &p) in pages.iter().enumerate() {
            let home = self.layout.home_of(p);
            if home == self.me {
                // Our own master is unreadable: the page is checked out
                // (or mid-transaction). Queue as a local reader; the
                // recall/writeback path fires PageReady.
                let mut ev = Vec::new();
                let me = self.me;
                self.hp(p.0).waiting_readers.push(me);
                self.pump(io, mem, p.0, &mut ev);
                let done = ev.contains(&ProtoEvent::PageReady(p));
                if i == 0 {
                    resolved = done;
                } else if !done {
                    issued.push(p);
                }
            } else {
                let prev = self.fetches.insert(p.0, false);
                debug_assert!(prev.is_none(), "double fetch for p{p}");
                match by_home.iter_mut().find(|(h, _)| *h == home) {
                    Some((_, v)) => v.push(p.0),
                    None => by_home.push((home, vec![p.0])),
                }
                if i > 0 {
                    issued.push(p);
                }
            }
        }
        // One doorbell per home: the page list is the batch, so
        // `read_fault_batch` composes without software envelopes.
        for (home, pages) in by_home {
            io.send_one_sided(home, ProtoMsg::RdmaRead { pages });
        }
        (resolved, issued)
    }

    fn write_fault(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        let home = self.layout.home_of(page);
        if home == self.me {
            let mut ev = Vec::new();
            let me = self.me;
            self.hp(page.0).waiting_writers.push(me);
            self.pump(io, mem, page.0, &mut ev);
            // The pump can emit nothing here but our own grant: no
            // local read is parked while a write faults.
            debug_assert!(ev.iter().all(|e| *e == ProtoEvent::PageReady(page)));
            !ev.is_empty()
        } else {
            debug_assert!(self.pending_write.is_none(), "one write fault at a time");
            self.pending_write = Some(page.0);
            io.send(home, ProtoMsg::WriteReq { page: page.0 });
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
            // The one-sided pair: delivered by the NIC on fabrics with
            // one-sided support, by ordinary software delivery anywhere
            // else (or under a fault plan's reliable transport). Same
            // logic either way; the kernel's record of a NIC delivery
            // says which it was.
            ProtoMsg::RdmaRead { pages } => self.serve_read(io, mem, from, pages, events),
            ProtoMsg::RdmaData { pages } => {
                for (p, d) in pages {
                    self.complete_fetch(io, mem, p, d, events);
                }
            }
            ProtoMsg::ReadReq { page } => {
                let busy = {
                    let hp = self.hp(page);
                    hp.writer.is_some() || hp.txn.is_some()
                };
                if busy {
                    self.hp(page).waiting_readers.push(from);
                    self.pump(io, mem, page, events);
                } else {
                    self.hp(page).copyset.insert(from);
                    let data = Self::master(mem, page);
                    io.send(from, ProtoMsg::PageRead { page, data });
                }
            }
            ProtoMsg::PageRead { page, data } => {
                self.complete_fetch(io, mem, page, Some(data), events);
            }
            ProtoMsg::WriteReq { page } => {
                self.hp(page).waiting_writers.push(from);
                self.pump(io, mem, page, events);
            }
            ProtoMsg::PageOwn { page, data, .. } => {
                debug_assert_eq!(self.pending_write, Some(page));
                self.pending_write = None;
                match data {
                    Some(b) => mem.install(PageId(page), b, Access::Write),
                    None => mem.set_access(PageId(page), Access::Write),
                }
                events.push(ProtoEvent::PageReady(PageId(page)));
            }
            ProtoMsg::Inval { page, .. } => {
                mem.invalidate(PageId(page));
                if let Some(stale) = self.fetches.get_mut(&page) {
                    // The lease revoke caught a fetch in flight: the
                    // arriving bytes will be discarded and refetched.
                    *stale = true;
                }
                io.send(from, ProtoMsg::InvalAck { page });
            }
            ProtoMsg::InvalAck { page } => {
                let done = {
                    let txn = self.hp(page).txn.as_mut().expect("stray InvalAck");
                    debug_assert!(!txn.awaiting_writeback && txn.pending_acks > 0);
                    txn.pending_acks -= 1;
                    txn.pending_acks == 0
                };
                if done {
                    let (r, grant_data) = {
                        let txn = self.hp(page).txn.take().expect("checked above");
                        let Goal::Write(r) = txn.goal else {
                            unreachable!("read goals take no invalidation acks")
                        };
                        (r, txn.grant_data)
                    };
                    if self.grant_write(io, mem, page, r, grant_data, events) {
                        self.pump(io, mem, page, events);
                    }
                }
            }
            ProtoMsg::RdmaRecall {
                page,
                requester,
                write,
            } => {
                if !mem.access(PageId(page)).allows_write() {
                    // Delivery jitter reordered the recall ahead of the
                    // grant it chases: we are the in-flight grantee.
                    // Park it — the answer goes out at `op_retired`,
                    // after the granted write has performed.
                    debug_assert_eq!(
                        self.pending_write,
                        Some(page),
                        "recall for a page we neither hold nor await"
                    );
                    self.deferred_recalls.push((page, requester, write));
                } else {
                    self.answer_recall(io, mem, page, requester, write);
                }
            }
            ProtoMsg::RdmaWriteBack { page, data } => {
                let frame = mem
                    .page_bytes_mut(PageId(page))
                    .expect("home retains the master frame");
                frame.copy_from_slice(&data);
                let (goal, direct) = {
                    let hp = self.hp(page);
                    debug_assert_eq!(hp.writer, Some(from));
                    let txn = hp.txn.take().expect("writeback without a recall");
                    debug_assert!(txn.awaiting_writeback);
                    (txn.goal, txn.direct)
                };
                match goal {
                    Goal::Write(r) if direct == Some(r) => {
                        // The writer shipped ownership straight to `r`
                        // and invalidated itself: the master stays
                        // checked out, now to `r`. Nothing to
                        // invalidate (the copyset has been empty since
                        // before the previous grant).
                        debug_assert!(self.hp(page).copyset.is_empty());
                        self.hp(page).writer = Some(r);
                        self.pump(io, mem, page, events);
                    }
                    Goal::Read => {
                        mem.set_access(PageId(page), Access::Read);
                        let hp = self.hp(page);
                        hp.writer = None;
                        hp.copyset.insert(from);
                        if let Some(r) = direct {
                            // The writer served `r` directly; register
                            // its copy so later writes revoke it.
                            hp.copyset.insert(r);
                        }
                        self.pump(io, mem, page, events);
                    }
                    Goal::Write(r) => {
                        mem.set_access(PageId(page), Access::Read);
                        let hp = self.hp(page);
                        hp.writer = None;
                        hp.copyset.insert(from);
                        if self.write_invals(io, mem, page, r, events) {
                            self.pump(io, mem, page, events);
                        }
                    }
                }
            }
            other => panic!(
                "rdma got unexpected message {}",
                dsm_net::Payload::kind(&other)
            ),
        }
    }

    fn op_retired(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        // Recalls that beat their grant here wait for this moment: the
        // parked write has now performed, so the page can go back (and
        // its requester be served directly).
        for (page, requester, write) in std::mem::take(&mut self.deferred_recalls) {
            self.answer_recall(io, mem, page, requester, write);
        }
        let pages = std::mem::take(&mut self.pump_after_retire);
        let mut ev = Vec::new();
        for page in pages {
            self.pump(io, mem, page, &mut ev);
        }
        debug_assert!(ev.is_empty(), "no local op is parked at retirement");
    }

    fn sync_depart(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) -> Piggy {
        // Sequentially consistent: every write is globally performed
        // before its op completes; barriers carry nothing. But release
        // our own write leases here — a master the home still holds
        // exclusively would stall every one-sided read of that page,
        // and after a synchronization point the next access is
        // typically a remote read. Downgrading costs nothing (the next
        // local write simply re-faults); remote checkouts are left
        // alone — recalling them here would push whole pages over the
        // wire eagerly, and the lazy recall only pays when someone
        // actually asks. No messages are sent, so the (hash-ordered)
        // iteration is trace-invisible.
        let me = self.me;
        for (&page, hp) in self.home.iter_mut() {
            if hp.writer == Some(me) && hp.txn.is_none() {
                mem.set_access(PageId(page), Access::Read);
                hp.writer = None;
            }
        }
        Piggy::None
    }

    fn on_crash(&mut self, _mem: &mut FrameTable) {
        // Volatile state is gone: directory, fetches, grants. Remote
        // state referring to us (checked-out pages, copyset entries at
        // other homes) is orphaned — see the module docs.
        self.home.clear();
        self.fetches.clear();
        self.pending_write = None;
        self.deferred_recalls.clear();
        self.pump_after_retire.clear();
    }

    fn on_recover(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        // Cold restart: reinstall zeroed masters. Pages checked out
        // before the crash are lost; requesters starve and the watchdog
        // flags the run (documented fallback).
        for p in self.layout.pages_of(self.me) {
            mem.install_zeroed(p, Access::Read);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_io::FakeIo;
    use dsm_mem::{PageGeometry, Placement};
    use dsm_net::CostModel;

    fn io() -> FakeIo {
        FakeIo::new(CostModel::rdma_modern())
    }

    /// 3 nodes, 64-byte pages, 4 pages homed cyclically (page p → node
    /// p % 3).
    fn setup(me: u32) -> (Rdma, FrameTable) {
        let layout = SpaceLayout::new(PageGeometry::new(64), 256, Placement::Cyclic, 3);
        let mut p = Rdma::new(NodeId(me), layout);
        let mut mem = FrameTable::new(layout.geometry);
        let mut i = io();
        p.on_start(&mut i, &mut mem);
        (p, mem)
    }

    #[test]
    fn nic_read_serves_quiescent_master_one_sided() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::RdmaRead { pages: vec![0] },
            &mut ev,
        );
        assert!(ev.is_empty() && i.sent.is_empty());
        match &i.one_sided[..] {
            [(dst, ProtoMsg::RdmaData { pages })] => {
                assert_eq!(*dst, NodeId(1));
                assert!(matches!(&pages[..], [(0, Some(d))] if d.len() == 64));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn nic_read_of_a_checked_out_page_queues_and_recalls_the_writer() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        let mut ev = Vec::new();
        // Node 1 checks page 0 out for writing (no copies: instant
        // grant with data).
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::WriteReq { page: 0 },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(1),
                ProtoMsg::PageOwn {
                    page: 0,
                    data: Some(_),
                    ..
                }
            )]
        ));
        i.sent.clear();
        // The home's own master is unreadable while checked out.
        assert_eq!(mem.access(PageId(0)), Access::None);
        // A one-sided read cannot be served by the NIC now: the reader
        // queues in software and the pump recalls the writer, naming
        // the reader for direct service — no NACK leg back to the
        // requester, and no NIC-read gauge credit.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(2),
            ProtoMsg::RdmaRead { pages: vec![0] },
            &mut ev,
        );
        assert!(i.one_sided.is_empty());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(1),
                ProtoMsg::RdmaRecall {
                    page: 0,
                    requester: NodeId(2),
                    write: false,
                }
            )]
        ));
        i.sent.clear();
        // The writeback lands: the reader was already served directly
        // by the writer, so the home only registers both read copies —
        // no re-serve, and the next write grant revokes them both.
        let bytes = vec![7u8; 64].into_boxed_slice();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::RdmaWriteBack {
                page: 0,
                data: bytes,
            },
            &mut ev,
        );
        assert!(
            i.sent.is_empty(),
            "direct-served reader must not be re-served"
        );
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::WriteReq { page: 0 },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(NodeId(2), ProtoMsg::Inval { page: 0, .. })]
        ));
    }

    #[test]
    fn write_grant_revokes_registered_readers_first() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        let mut ev = Vec::new();
        // Register node 2 as a reader via the NIC path.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(2),
            ProtoMsg::RdmaRead { pages: vec![0] },
            &mut ev,
        );
        i.one_sided.clear();
        // Node 1 asks to write: node 2's lease is revoked before any
        // grant.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::WriteReq { page: 0 },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(NodeId(2), ProtoMsg::Inval { page: 0, .. })]
        ));
        i.sent.clear();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(2),
            ProtoMsg::InvalAck { page: 0 },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(1),
                ProtoMsg::PageOwn {
                    page: 0,
                    data: Some(_),
                    ..
                }
            )]
        ));
        assert!(ev.is_empty());
    }

    #[test]
    fn stale_one_sided_data_is_discarded_and_refetched() {
        // Node 1 fetches page 0 (homed at node 0) one-sided.
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        let (resolved, issued) = p.read_fault_batch(&mut i, &mut mem, &[PageId(0)]);
        assert!(!resolved && issued.is_empty());
        assert!(matches!(
            &i.one_sided[..],
            [(NodeId(0), ProtoMsg::RdmaRead { .. })]
        ));
        // An invalidation overtakes the fetch (lease revoked while the
        // data is airborne).
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::Inval {
                page: 0,
                new_owner: NodeId(2),
            },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(NodeId(0), ProtoMsg::InvalAck { page: 0 })]
        ));
        i.sent.clear();
        // The stale bytes arrive: discarded, refetched two-sided.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::RdmaData {
                pages: vec![(0, Some(vec![7u8; 64].into_boxed_slice()))],
            },
            &mut ev,
        );
        assert!(ev.is_empty());
        assert_eq!(mem.access(PageId(0)), Access::None);
        assert!(matches!(
            &i.sent[..],
            [(NodeId(0), ProtoMsg::ReadReq { page: 0 })]
        ));
        // The two-sided reply (served post-write) completes the fault.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::PageRead {
                page: 0,
                data: vec![9u8; 64].into_boxed_slice(),
            },
            &mut ev,
        );
        assert_eq!(ev, vec![ProtoEvent::PageReady(PageId(0))]);
        assert_eq!(mem.page_bytes(PageId(0)).unwrap()[0], 9);
    }

    #[test]
    fn recall_writes_back_and_keeps_a_read_copy() {
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        // Node 1 holds page 0 exclusively. A legacy recall (requester =
        // home: the home's own parked op wants the page) writes back
        // without any direct service.
        mem.install(PageId(0), vec![5u8; 64].into_boxed_slice(), Access::Write);
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::RdmaRecall {
                page: 0,
                requester: NodeId(0),
                write: false,
            },
            &mut ev,
        );
        match &i.sent[..] {
            [(NodeId(0), ProtoMsg::RdmaWriteBack { page: 0, data })] => {
                assert_eq!(data[0], 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mem.access(PageId(0)), Access::Read);
    }

    #[test]
    fn read_recall_serves_the_requester_directly_while_writing_back() {
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        // Node 1 holds page 0 exclusively; the home recalls it for
        // reader 2: the data goes straight to 2, the writeback to the
        // home, and we keep a read copy.
        mem.install(PageId(0), vec![5u8; 64].into_boxed_slice(), Access::Write);
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::RdmaRecall {
                page: 0,
                requester: NodeId(2),
                write: false,
            },
            &mut ev,
        );
        match &i.sent[..] {
            [(NodeId(2), ProtoMsg::RdmaData { pages }), (NodeId(0), ProtoMsg::RdmaWriteBack { page: 0, data })] =>
            {
                assert!(matches!(&pages[..], [(0, Some(d))] if d[0] == 5));
                assert_eq!(data[0], 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mem.access(PageId(0)), Access::Read);
    }

    #[test]
    fn write_recall_forwards_ownership_directly() {
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        // Node 1 holds page 0 exclusively; the home recalls it for
        // writer 2: ownership (with data) goes straight to 2, the
        // writeback to the home, and our copy dies with the checkout.
        mem.install(PageId(0), vec![5u8; 64].into_boxed_slice(), Access::Write);
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::RdmaRecall {
                page: 0,
                requester: NodeId(2),
                write: true,
            },
            &mut ev,
        );
        match &i.sent[..] {
            [(
                NodeId(2),
                ProtoMsg::PageOwn {
                    page: 0,
                    data: Some(d),
                    ..
                },
            ), (NodeId(0), ProtoMsg::RdmaWriteBack { page: 0, .. })] => {
                assert_eq!(d[0], 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mem.access(PageId(0)), Access::None);
    }

    #[test]
    fn home_closes_a_direct_write_forward_without_regranting() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        let mut ev = Vec::new();
        // Node 1 checks page 0 out for writing.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::WriteReq { page: 0 },
            &mut ev,
        );
        i.sent.clear();
        // Node 2 asks to write: the recall names it as the direct
        // write requester.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(2),
            ProtoMsg::WriteReq { page: 0 },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(1),
                ProtoMsg::RdmaRecall {
                    page: 0,
                    requester: NodeId(2),
                    write: true,
                }
            )]
        ));
        i.sent.clear();
        // The writeback closes the transaction without any grant or
        // invalidation from the home — node 1 already shipped
        // ownership to node 2 directly.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::RdmaWriteBack {
                page: 0,
                data: vec![9u8; 64].into_boxed_slice(),
            },
            &mut ev,
        );
        assert!(
            i.sent.is_empty(),
            "home must not re-grant after a direct forward"
        );
        // The page is checked out to node 2 now: a later reader
        // triggers a fresh recall aimed at node 2.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::ReadReq { page: 0 },
            &mut ev,
        );
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(2),
                ProtoMsg::RdmaRecall {
                    page: 0,
                    requester: NodeId(1),
                    write: false,
                }
            )]
        ));
    }

    #[test]
    fn recall_that_beats_its_grant_is_answered_after_the_write_performs() {
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        // Node 1 write-faults page 0 (homed at node 0).
        assert!(!p.write_fault(&mut i, &mut mem, PageId(0)));
        assert!(matches!(
            &i.sent[..],
            [(NodeId(0), ProtoMsg::WriteReq { page: 0 })]
        ));
        i.sent.clear();
        // Jitter delivers the home's recall ahead of the grant it
        // chases: nothing may go back yet (the write has not performed).
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::RdmaRecall {
                page: 0,
                requester: NodeId(0),
                write: false,
            },
            &mut ev,
        );
        assert!(i.sent.is_empty() && ev.is_empty());
        // The grant lands, the parked write performs, and retirement
        // answers the recall with the written bytes.
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(0),
            ProtoMsg::PageOwn {
                page: 0,
                data: Some(vec![0u8; 64].into_boxed_slice()),
                ninval: 0,
                copyset: None,
            },
            &mut ev,
        );
        assert_eq!(ev, vec![ProtoEvent::PageReady(PageId(0))]);
        mem.page_bytes_mut(PageId(0)).unwrap()[0] = 42;
        p.op_retired(&mut i, &mut mem);
        match &i.sent[..] {
            [(NodeId(0), ProtoMsg::RdmaWriteBack { page: 0, data })] => {
                assert_eq!(data[0], 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mem.access(PageId(0)), Access::Read);
    }

    #[test]
    fn sync_departure_releases_the_homes_own_write_lease() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        assert!(p.write_fault(&mut i, &mut mem, PageId(0)));
        p.op_retired(&mut i, &mut mem);
        assert_eq!(mem.access(PageId(0)), Access::Write);
        // Heading into a barrier the lease is dropped, so the very next
        // one-sided read is served instead of NACKed.
        assert!(matches!(p.sync_depart(&mut i, &mut mem), Piggy::None));
        assert_eq!(mem.access(PageId(0)), Access::Read);
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(1),
            ProtoMsg::RdmaRead { pages: vec![0] },
            &mut ev,
        );
        assert!(matches!(
            &i.one_sided[..],
            [(_, ProtoMsg::RdmaData { pages })] if matches!(&pages[..], [(0, Some(_))])
        ));
    }

    #[test]
    fn home_write_fault_resolves_synchronously_when_unshared() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        // Page 0 is homed here, no readers registered: instant upgrade.
        assert!(p.write_fault(&mut i, &mut mem, PageId(0)));
        assert_eq!(mem.access(PageId(0)), Access::Write);
        assert!(i.sent.is_empty() && i.one_sided.is_empty());
        // A one-sided read arriving while the home holds its own lease
        // is handed off to software: the pump downgrades the master in
        // place and serves the reader two-sided — no NACK, no NIC
        // credit.
        let mut ev = Vec::new();
        p.on_message(
            &mut i,
            &mut mem,
            NodeId(2),
            ProtoMsg::RdmaRead { pages: vec![0] },
            &mut ev,
        );
        assert!(i.one_sided.is_empty());
        assert!(matches!(
            &i.sent[..],
            [(NodeId(2), ProtoMsg::PageRead { page: 0, .. })]
        ));
        assert_eq!(mem.access(PageId(0)), Access::Read);
    }
}
