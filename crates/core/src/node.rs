//! The per-node DSM runtime: owns the frame table, the coherence
//! protocol, and the synchronization engines, and implements the
//! simulator's [`NodeBehavior`] by routing faults, messages, and sync
//! events between them.

use std::sync::Arc;

use crate::lease::FrameCell;
use crate::msg::CoreMsg;
use dsm_mem::{FrameTable, GlobalAddr, PageId, SpaceLayout};
use dsm_net::{Ctx, Dur, FaultNotice, NodeBehavior, NodeId, OpOutcome};
use dsm_proto::{BatchingIo, Facts, Piggy, ProtoEvent, ProtoIo, ProtoMsg, Protocol, WriteOutcome};
use dsm_sync::{BarrierId, LockId, SyncDone, SyncEngines, SyncEnvelope, SyncHost, SyncMsg};

/// Borrowed view of an application-thread read buffer carried inside a
/// [`DsmOp`] — a raw pointer, so handing the op to the event loop
/// copies 16 bytes instead of allocating.
///
/// Soundness: [`dsm_net::AppHandle::op`] does not return to the issuing
/// program until the reply arrives, so the pointed-to buffer outlives
/// the op and is never accessed concurrently. The loop side touches
/// it only through [`Self::slice_mut`] while the op is in flight.
#[derive(Debug)]
pub struct OpBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the buffer is only touched by whichever thread holds the
// floor (see `crate::lease` module docs); the handle itself is inert.
unsafe impl Send for OpBuf {}

impl OpBuf {
    pub fn new(buf: &mut [u8]) -> Self {
        OpBuf {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// # Safety
    /// The buffer this handle was created from must still be live and
    /// unaliased — guaranteed while the op it rides in is in flight.
    unsafe fn slice_mut(&mut self, pos: usize, n: usize) -> &mut [u8] {
        debug_assert!(pos + n <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(pos), n)
    }
}

/// Borrowed view of an application-thread write payload carried inside
/// a [`DsmOp`]; same soundness argument as [`OpBuf`], and it kills the
/// old `data.to_vec()` copy per write.
#[derive(Debug)]
pub struct OpData {
    ptr: *const u8,
    len: usize,
}

// SAFETY: as for `OpBuf`.
unsafe impl Send for OpData {}

impl OpData {
    pub fn new(data: &[u8]) -> Self {
        OpData {
            ptr: data.as_ptr(),
            len: data.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// # Safety
    /// As for [`OpBuf::slice_mut`].
    unsafe fn slice(&self, pos: usize, n: usize) -> &[u8] {
        debug_assert!(pos + n <= self.len);
        std::slice::from_raw_parts(self.ptr.add(pos), n)
    }
}

/// Operations the application can issue against the shared space.
#[derive(Debug)]
pub enum DsmOp {
    Read {
        addr: GlobalAddr,
        buf: OpBuf,
        /// Declared read-ahead window (see [`crate::Dsm::prefetch_window`]):
        /// on a miss inside it, the runtime offers the following
        /// not-yet-readable pages of the window to the protocol as
        /// prefetch candidates, up to the configured batch depth.
        hint: Option<(GlobalAddr, usize)>,
    },
    Write {
        addr: GlobalAddr,
        data: OpData,
    },
    Acquire(LockId),
    Release(LockId),
    Barrier(BarrierId),
    /// Fetch the current image of object `obj` into `buf` (object
    /// protocols only; `write = true` also takes ownership and pins the
    /// object until the matching [`DsmOp::ObjPut`]).
    ObjGet {
        obj: u32,
        write: bool,
        buf: OpBuf,
    },
    /// Publish the mutated image of an object acquired with
    /// `ObjGet { write: true, .. }`. Always completes synchronously.
    ObjPut {
        obj: u32,
        data: OpData,
    },
}

/// What a parked operation is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// `Read` / `Write` / `ObjGet`: a fault is in flight (`PageReady` /
    /// `ObjReady` re-drives the op).
    Fault,
    /// `Write`: the protocol took the rest of the write over
    /// (`WriteDone` completes it).
    AsyncWrite,
    /// `Release` / `Barrier`: the protocol's pre-release flush
    /// (`FlushDone` moves on).
    Flush,
    /// `Acquire` / `Barrier`: the lock grant or the barrier release.
    Wait,
}

/// The application operation this node has parked: the op itself —
/// every op completes with `()`, reads land in the caller's buffer —
/// and how far it has got. A crash re-drives `op` from the start.
///
/// Reads and writes are performed *piecewise*, one page at a time
/// (`pos` bytes done), retiring each page's protocol transaction before
/// faulting on the next — mirroring real per-word loads/stores. An
/// all-or-nothing multi-page access would otherwise hold one page's
/// transaction open while waiting for another, deadlocking single-copy
/// protocols (hold-and-wait).
#[derive(Debug)]
struct Parked {
    op: DsmOp,
    stage: Stage,
    pos: usize,
    faults: u32,
}

/// One DSM node: protocol + sync engines + local memory.
///
/// The frame table sits behind a shared [`FrameCell`] so the node's
/// application thread can hold a [`crate::lease::Lease`] on it and
/// service page hits without yielding to the event loop. Node code
/// accesses it through [`DsmNode::mem`], one fresh borrow per call
/// site, never held across a floor handoff.
pub struct DsmNode {
    me: NodeId,
    nnodes: u32,
    layout: SpaceLayout,
    frames: Arc<FrameCell>,
    proto: Box<dyn Protocol>,
    sync: SyncEngines<Piggy>,
    pending: Option<Parked>,
    /// The current op faulted at least once → tell the protocol when it
    /// retires (single-writer protocols release deferred requests then).
    faulted: bool,
    /// Max pages per batched read fault (demand + prefetches). Depth 1
    /// disables the pipeline: every fault offers its demand page alone.
    batch_depth: usize,
    /// Hard ceiling on any batch: the global cap intersected with the
    /// protocol's own limit. Faults inside a declared read-ahead window
    /// size their batch from the window, clamped here, instead of from
    /// `batch_depth`.
    max_depth: usize,
    /// The fault queue: pages with a read transaction in flight (the
    /// demand page plus any prefetches issued with it). The parked read
    /// completes only once this drains, so writes and sync ops never
    /// start with faults outstanding.
    inflight: Vec<usize>,
    /// The op that was parked when this node crashed, for re-submission
    /// at recovery. The frozen program still owns the op's buffers, so
    /// the raw pointers inside stay valid.
    resubmit: Option<DsmOp>,
}

/// Adapter giving the protocol access to the kernel context under its
/// own narrow trait.
struct Io<'a, 'b> {
    ctx: &'a mut Ctx<'b, DsmNode>,
}

impl ProtoIo for Io<'_, '_> {
    fn send(&mut self, dst: NodeId, msg: dsm_proto::ProtoMsg) {
        self.ctx.send(dst, CoreMsg::Proto(msg));
    }
    fn send_one_sided(&mut self, dst: NodeId, msg: dsm_proto::ProtoMsg) {
        self.ctx.send_one_sided(dst, CoreMsg::Proto(msg));
    }
    fn model(&self) -> &dsm_net::CostModel {
        self.ctx.model()
    }
    fn rec(&mut self, kind: dsm_net::trace::Kind, unit: u64, bytes: u64) {
        self.ctx.rec(kind, unit, dsm_net::KindId(0), bytes);
    }
}

/// What the sync engines run against: the kernel context as their
/// transport, and the protocol's seven synchronization hooks as the
/// source and sink of every piggyback.
struct SyncSide<'a, 'b, 'c> {
    io: Io<'a, 'b>,
    proto: &'c mut dyn Protocol,
    mem: &'c mut FrameTable,
}

impl SyncHost<Piggy> for SyncSide<'_, '_, '_> {
    fn send(&mut self, dst: NodeId, msg: SyncMsg<Piggy>) {
        self.io.ctx.send(dst, CoreMsg::Sync(msg));
    }
    fn acquire_reqinfo(&mut self, lock: LockId) -> Piggy {
        self.proto.acquire_reqinfo(self.mem, lock)
    }
    fn grant_piggy(&mut self, lock: LockId, to: NodeId, reqinfo: &Piggy) -> Piggy {
        self.proto
            .grant_piggy(&mut self.io, self.mem, lock, to, reqinfo)
    }
    fn release_piggy(&mut self, lock: LockId) -> Piggy {
        self.proto.release_piggy(&mut self.io, self.mem, lock)
    }
    fn on_acquired(&mut self, lock: LockId, piggy: Piggy) {
        self.proto.on_acquired(&mut self.io, self.mem, lock, piggy);
    }
    fn sync_depart(&mut self) -> Piggy {
        self.proto.sync_depart(&mut self.io, self.mem)
    }
    fn sync_arrive(&mut self, piggy: Piggy) {
        self.proto.sync_arrive(&mut self.io, self.mem, piggy);
    }
    fn merge_barrier(&mut self, arrivals: Vec<SyncEnvelope<Piggy>>) -> Vec<SyncEnvelope<Piggy>> {
        let nnodes = self.io.ctx.nodes();
        self.proto
            .merge_barrier(&mut self.io, self.mem, arrivals, nnodes)
    }
}

impl DsmNode {
    pub fn new(
        me: NodeId,
        layout: SpaceLayout,
        facts: &'static Facts,
        proto: Box<dyn Protocol>,
        lock_kind: dsm_sync::LockKind,
        barrier_kind: dsm_sync::BarrierKind,
        batch_depth: usize,
    ) -> Self {
        let nnodes = layout.nnodes();
        // Clamp to the global cap, then to the protocol's row.
        let max_depth = facts.max_batch_depth.clamp(1, crate::MAX_BATCH_DEPTH);
        let batch_depth = batch_depth.clamp(1, max_depth);
        DsmNode {
            me,
            nnodes,
            layout,
            frames: Arc::new(FrameCell::new(FrameTable::new(layout.geometry))),
            proto,
            sync: SyncEngines::new(lock_kind, barrier_kind, me, nnodes),
            pending: None,
            faulted: false,
            batch_depth,
            max_depth,
            inflight: Vec::new(),
            resubmit: None,
        }
    }

    /// Shared handle to this node's frame table, for building the
    /// application thread's lease.
    pub(crate) fn frames_handle(&self) -> Arc<FrameCell> {
        Arc::clone(&self.frames)
    }

    /// Loop-side access to the frame table. Each call site takes a
    /// fresh borrow; see [`FrameCell`] for the aliasing argument.
    #[allow(clippy::mut_from_ref)]
    fn mem(frames: &FrameCell) -> &mut FrameTable {
        // SAFETY: node code runs only inside the event loop, on the
        // thread that owns the floor, while the node's program
        // is parked without it (`crate::lease` module docs).
        unsafe { &mut *frames.get() }
    }

    /// Call into the protocol: `f` gets it with this node's transport
    /// and frame table.
    fn with_proto<R>(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        f: impl FnOnce(&mut dyn Protocol, &mut dyn ProtoIo, &mut FrameTable) -> R,
    ) -> R {
        let mut io = Io { ctx };
        f(&mut *self.proto, &mut io, Self::mem(&self.frames))
    }

    /// Call into the sync engines: `f` gets them with the host that
    /// sends through `ctx` and asks the protocol for every piggyback.
    fn with_sync<R>(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        f: impl FnOnce(&mut SyncEngines<Piggy>, &mut SyncSide<'_, '_, '_>) -> R,
    ) -> R {
        let mut side = SyncSide {
            io: Io { ctx },
            proto: &mut *self.proto,
            mem: Self::mem(&self.frames),
        };
        f(&mut self.sync, &mut side)
    }

    fn retire_if_faulted(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.faulted {
            self.faulted = false;
            let batched = self.batch_depth > 1;
            self.with_proto(ctx, |proto, io, mem| {
                if batched {
                    // Confirmations for several pages retiring together
                    // ride one envelope per destination.
                    let mut bio = BatchingIo::new(io);
                    proto.op_retired(&mut bio, mem);
                    bio.flush();
                } else {
                    proto.op_retired(io, mem);
                }
            });
        }
    }

    /// Cost charged for a locally satisfied access of `len` bytes.
    fn access_cost(ctx: &Ctx<'_, Self>, len: usize) -> Dur {
        ctx.model().mem_copy(len)
    }

    /// Cost charged when a fault completes: the trap, plus copying the
    /// fetched page into place.
    fn install_cost(&self, ctx: &Ctx<'_, Self>) -> Dur {
        let model = ctx.model();
        model.fault_overhead + model.mem_copy(self.layout.geometry.page_size())
    }

    /// Take the parked op out for `event`, which only an op matching
    /// `expected` may be waiting for.
    fn unpark(
        &mut self,
        event: impl std::fmt::Display,
        expected: impl FnOnce(&Parked) -> bool,
    ) -> Parked {
        match self.pending.take() {
            Some(parked) if expected(&parked) => parked,
            other => panic!("{}: {event} while pending {other:?}", self.me),
        }
    }

    /// The barrier this node waits at has released it.
    fn barrier_released(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.unpark("barrier released", |p| {
            matches!(p.op, DsmOp::Barrier(_)) && p.stage == Stage::Wait
        });
        ctx.complete_op(());
    }

    // ---------- fault-retry state machine ----------

    /// Length of the piece of `[addr+pos, addr+len)` lying on one page.
    fn piece_len(&self, addr: GlobalAddr, pos: usize, len: usize) -> usize {
        let g = self.layout.geometry;
        let a = addr.offset(pos);
        (g.page_size() - g.offset_in_page(a)).min(len - pos)
    }

    /// Pages offered to the protocol for one batched read fault: the
    /// demand page (holding faulting address `a`) first, then following
    /// pages of the read-ahead window that are not yet readable and
    /// have no transaction in flight.
    ///
    /// The window is the op's declared hint when it covers `a` — a
    /// sequential kernel marking the region it is streaming through —
    /// and otherwise the op's own byte range `[addr, addr + len)`, so
    /// multi-page reads self-prefetch their later pages.
    ///
    /// Batch depth is adaptive: a fault inside a declared hint window
    /// sizes its batch from the window's remaining page extent (the
    /// app said how far it will stream), clamped by the global cap and
    /// the protocol row's `max_batch_depth`. Without a hint the fixed per-run
    /// `batch_depth` applies.
    fn prefetch_candidates(
        &self,
        a: GlobalAddr,
        addr: GlobalAddr,
        len: usize,
        hint: Option<(GlobalAddr, usize)>,
    ) -> Vec<PageId> {
        let g = self.layout.geometry;
        let demand = g.page_of(a);
        let (end, hinted) = match hint {
            Some((h, hlen)) if h.0 <= a.0 && a.0 < h.0 + hlen => (h.0 + hlen, true),
            _ => (addr.0 + len, false),
        };
        let end = end.min(self.layout.total_bytes());
        let mut out = vec![demand];
        if end > a.0 {
            let mem = Self::mem(&self.frames);
            let last = g.page_of(GlobalAddr(end - 1)).0;
            let depth = if hinted {
                (last - demand.0 + 1).min(self.max_depth)
            } else {
                self.batch_depth
            };
            for p in demand.0 + 1..=last {
                if out.len() >= depth {
                    break;
                }
                if !mem.access(PageId(p)).allows_read() && !self.inflight.contains(&p) {
                    out.push(PageId(p));
                }
            }
        }
        out
    }

    /// Drive a read/write forward, one page piece at a time. Completes
    /// the op when the last piece lands; otherwise parks it, with its
    /// progress and a fault in flight. The op is out of `self.pending`
    /// while the machine runs.
    fn drive_access(&mut self, ctx: &mut Ctx<'_, Self>, mut parked: Parked) {
        let Parked {
            op,
            stage,
            pos,
            faults,
        } = &mut parked;
        let (completed, len) = match op {
            DsmOp::Read { addr, buf, hint } => {
                let (addr, len) = (*addr, buf.len());
                let completed = loop {
                    if *pos >= len {
                        // With prefetches still in flight the op retires
                        // only once the fault queue drains, so the next
                        // op (possibly a write or sync) never starts
                        // with read transactions outstanding.
                        break self.inflight.is_empty();
                    }
                    let n = self.piece_len(addr, *pos, len);
                    let a = addr.offset(*pos);
                    // SAFETY: op in flight → app buffer live, unaliased.
                    let piece = unsafe { buf.slice_mut(*pos, n) };
                    if Self::mem(&self.frames).try_read(a, piece) {
                        *pos += n;
                        // Retire this page's transaction before touching
                        // the next page (no hold-and-wait).
                        self.retire_if_faulted(ctx);
                        continue;
                    }
                    let page = self.layout.geometry.page_of(a);
                    if self.inflight.contains(&page.0) {
                        // A prefetch for this page is already in flight;
                        // park until it lands instead of re-faulting.
                        break false;
                    }
                    *faults += 1;
                    self.faulted = true;
                    // Depth 1 offers the demand page alone, inside a
                    // declared window too.
                    let cands;
                    let pages = if self.batch_depth > 1 {
                        cands = self.prefetch_candidates(a, addr, len, *hint);
                        &cands[..]
                    } else {
                        std::slice::from_ref(&page)
                    };
                    let (resolved, issued) = self
                        .with_proto(ctx, |proto, io, mem| proto.read_fault_batch(io, mem, pages));
                    *faults += issued.len() as u32;
                    self.inflight.extend(issued.iter().map(|p| p.0));
                    if !resolved {
                        self.inflight.push(page.0);
                        break false;
                    }
                };
                (completed, len)
            }
            DsmOp::Write { addr, data } => {
                let (addr, len) = (*addr, data.len());
                let completed = loop {
                    if *pos >= len {
                        break true;
                    }
                    let n = self.piece_len(addr, *pos, len);
                    let a = addr.offset(*pos);
                    // SAFETY: op in flight → app buffer live, unaliased.
                    let piece = unsafe { data.slice(*pos, n) };
                    if Self::mem(&self.frames).try_write(a, piece) {
                        *pos += n;
                        self.retire_if_faulted(ctx);
                        continue;
                    }
                    *faults += 1;
                    self.faulted = true;
                    // Offer the whole remainder to the protocol:
                    // update-style protocols take it over entirely.
                    // SAFETY: as above.
                    let rest = unsafe { data.slice(*pos, len - *pos) };
                    let outcome =
                        self.with_proto(ctx, |proto, io, mem| proto.write_op(io, mem, a, rest));
                    match outcome {
                        WriteOutcome::Ready => {}
                        WriteOutcome::Faulted(_) => break false,
                        WriteOutcome::Done => break true,
                        WriteOutcome::Async => {
                            *stage = Stage::AsyncWrite;
                            break false;
                        }
                    }
                };
                (completed, len)
            }
            other => panic!("{}: access machine run on {other:?}", self.me),
        };
        if completed {
            self.complete_access(ctx, parked.faults, len);
        } else {
            self.pending = Some(parked);
        }
    }

    /// The parked access of `len` bytes has performed after `faults`
    /// faults: charge it, answer the program, retire its transaction.
    fn complete_access(&mut self, ctx: &mut Ctx<'_, Self>, faults: u32, len: usize) {
        let cost = self.install_cost(ctx) * faults as u64 + Self::access_cost(ctx, len);
        ctx.complete_op_after((), cost);
        self.retire_if_faulted(ctx);
    }

    /// Copy object `obj` into `buf` if the protocol can serve it now;
    /// otherwise a fetch is in flight and `ObjReady` follows.
    fn try_obj_get(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        obj: u32,
        write: bool,
        buf: &mut OpBuf,
    ) -> bool {
        self.with_proto(ctx, |proto, io, _| match proto.obj_fetch(io, obj, write) {
            Some(bytes) => {
                debug_assert_eq!(bytes.len(), buf.len());
                let n = bytes.len().min(buf.len());
                // SAFETY: op in flight → app buffer live, unaliased.
                unsafe { buf.slice_mut(0, n) }.copy_from_slice(&bytes[..n]);
                true
            }
            None => false,
        })
    }

    /// Retry the parked object fetch; completes the op if the protocol
    /// can serve it now, otherwise re-parks it (a further fetch may
    /// already be in flight, e.g. a read replica landed while the op
    /// waits for ownership).
    fn retry_pending_obj(&mut self, ctx: &mut Ctx<'_, Self>) {
        let mut parked = self.unpark("object retry", |p| matches!(p.op, DsmOp::ObjGet { .. }));
        let DsmOp::ObjGet { obj, write, buf } = &mut parked.op else {
            unreachable!("unpark checked the op")
        };
        if self.try_obj_get(ctx, *obj, *write, buf) {
            let cost = ctx.model().fault_overhead * parked.faults as u64
                + Self::access_cost(ctx, buf.len());
            ctx.complete_op_after((), cost);
            self.retire_if_faulted(ctx);
        } else {
            parked.faults += 1;
            self.pending = Some(parked);
        }
    }

    fn pump_proto_events(&mut self, ctx: &mut Ctx<'_, Self>, events: Vec<ProtoEvent>) {
        for ev in events {
            match ev {
                ProtoEvent::PageReady(p) => {
                    if let Some(i) = self.inflight.iter().position(|&q| q == p.0) {
                        self.inflight.swap_remove(i);
                    }
                    let parked = self.unpark("PageReady", |p| {
                        matches!(p.op, DsmOp::Read { .. } | DsmOp::Write { .. })
                            && p.stage == Stage::Fault
                    });
                    self.drive_access(ctx, parked);
                }
                ProtoEvent::WriteDone => {
                    let parked = self.unpark("WriteDone", |p| p.stage == Stage::AsyncWrite);
                    let cost = Self::access_cost(ctx, 0)
                        + self.install_cost(ctx) * parked.faults.saturating_sub(1) as u64;
                    ctx.complete_op_after((), cost);
                    self.retire_if_faulted(ctx);
                }
                ProtoEvent::FlushDone => {
                    let mut parked = self.unpark("FlushDone", |p| p.stage == Stage::Flush);
                    let done = match parked.op {
                        DsmOp::Release(lock) => {
                            self.with_sync(ctx, |sync, side| sync.locks.release(side, lock));
                            true
                        }
                        DsmOp::Barrier(id) => {
                            self.with_sync(ctx, |sync, side| sync.barriers.arrive(side, id))
                        }
                        _ => unreachable!("only releases and barriers flush"),
                    };
                    if done {
                        ctx.complete_op(());
                    } else {
                        parked.stage = Stage::Wait;
                        self.pending = Some(parked);
                    }
                }
                ProtoEvent::ObjReady(o) => {
                    // Lenient on mismatch: a late ObjData (e.g. from
                    // before a crash) may ready an object no op waits
                    // for anymore.
                    let waits = |p: &Parked| matches!(p.op, DsmOp::ObjGet { obj, .. } if obj == o);
                    if self.pending.as_ref().is_some_and(waits) {
                        self.retry_pending_obj(ctx);
                    }
                }
            }
        }
    }
}

impl NodeBehavior for DsmNode {
    type Msg = CoreMsg;
    type Op = DsmOp;
    type Reply = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.with_proto(ctx, |proto, io, mem| proto.on_start(io, mem));
    }

    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, mut op: DsmOp) -> OpOutcome<()> {
        debug_assert!(
            self.pending.is_none(),
            "{}: op while pending {:?}",
            self.me,
            self.pending
        );
        // An arm either answers on the spot or says what the op parks
        // for, and how many faults it has taken so far.
        let (stage, faults) = match &mut op {
            DsmOp::Read { addr, buf, .. } => {
                let (addr, len) = (*addr, buf.len());
                assert!(
                    self.layout.in_bounds(addr, len),
                    "read [{addr}, +{len}) out of bounds"
                );
                (Stage::Fault, 0)
            }
            DsmOp::Write { addr, data } => {
                let (addr, len) = (*addr, data.len());
                assert!(
                    self.layout.in_bounds(addr, len),
                    "write [{addr}, +{len}) out of bounds"
                );
                (Stage::Fault, 0)
            }
            &mut DsmOp::Acquire(lock) => {
                if self.with_sync(ctx, |sync, side| sync.locks.acquire(side, lock)) {
                    return OpOutcome::Done(());
                }
                (Stage::Wait, 0)
            }
            &mut DsmOp::Release(lock) => {
                if self.with_proto(ctx, |proto, io, mem| proto.pre_release(io, mem, Some(lock))) {
                    self.with_sync(ctx, |sync, side| sync.locks.release(side, lock));
                    return OpOutcome::Done(());
                }
                (Stage::Flush, 0)
            }
            DsmOp::ObjGet { obj, write, buf } => {
                if self.try_obj_get(ctx, *obj, *write, buf) {
                    return OpOutcome::DoneAfter((), Self::access_cost(ctx, buf.len()));
                }
                self.faulted = true;
                (Stage::Fault, 1)
            }
            DsmOp::ObjPut { obj, data } => {
                let len = data.len();
                // SAFETY: op in flight → app payload live, unaliased.
                let whole = unsafe { data.slice(0, len) };
                self.with_proto(ctx, |proto, io, _| proto.obj_publish(io, *obj, whole));
                return OpOutcome::DoneAfter((), Self::access_cost(ctx, len));
            }
            &mut DsmOp::Barrier(id) => {
                let flushed =
                    self.with_proto(ctx, |proto, io, mem| proto.pre_release(io, mem, None));
                if self.nnodes == 1 {
                    // Nobody to wait for; the flush above still made it
                    // a consistency point for the protocol.
                    return OpOutcome::Done(());
                }
                if !flushed {
                    (Stage::Flush, 0)
                } else if self.with_sync(ctx, |sync, side| sync.barriers.arrive(side, id)) {
                    return OpOutcome::Done(());
                } else {
                    (Stage::Wait, 0)
                }
            }
        };
        let parked = Parked {
            op,
            stage,
            pos: 0,
            faults,
        };
        if matches!(parked.op, DsmOp::Read { .. } | DsmOp::Write { .. }) {
            // Start the machine on the access: a hit completes it at
            // once. The machine completes ops through
            // `ctx.complete_op_after`, which the kernel accepts while
            // `on_op` is still running, so the answer is `Blocked` also
            // when the completion is already queued.
            self.drive_access(ctx, parked);
        } else {
            self.pending = Some(parked);
        }
        OpOutcome::Blocked
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_, Self>, notice: FaultNotice) {
        match notice {
            FaultNotice::Crashed => {
                // The parked op (if any) survives the crash for
                // re-submission: the frozen program still owns its
                // buffers, so the raw pointers stay valid until the
                // re-drive after recovery. Everything else — frames,
                // in-flight faults, protocol state — is volatile and
                // dies here. Lock and barrier *service* state is
                // modeled as surviving (a fault-tolerant sync service);
                // what a crash destroys is the node's memory.
                self.resubmit = self.pending.take().map(|parked| parked.op);
                self.faulted = false;
                self.inflight.clear();
                let mem = Self::mem(&self.frames);
                let held: Vec<_> = mem.held_pages().collect();
                for p in held {
                    mem.evict(p);
                }
                self.proto.on_crash(mem);
                self.sync.barriers.crashed();
            }
            FaultNotice::Recovered => {
                self.with_proto(ctx, |proto, io, mem| proto.on_recover(io, mem));
                if let Some(op) = self.resubmit.take() {
                    match self.on_op(ctx, op) {
                        OpOutcome::Done(r) => ctx.complete_op(r),
                        OpOutcome::DoneAfter(r, d) => ctx.complete_op_after(r, d),
                        OpOutcome::Blocked => {}
                    }
                }
            }
            FaultNotice::PeerDown { peer, permanent } => {
                if self.with_sync(ctx, |sync, side| {
                    sync.barriers.set_down(side, peer, permanent)
                }) {
                    self.barrier_released(ctx);
                }
                let mut events = Vec::new();
                self.with_proto(ctx, |proto, io, mem| {
                    proto.on_peer_down(io, mem, peer, &mut events)
                });
                self.pump_proto_events(ctx, events);
            }
            FaultNotice::PeerUp(peer) => {
                self.with_sync(ctx, |sync, side| sync.barriers.set_up(side, peer));
            }
        }
    }

    fn crashed_reply(&self) -> Option<()> {
        // A permanently dead node's program runs on as a zombie: every
        // op completes immediately and consumes no virtual time, so the
        // fleet's completion time excludes it.
        Some(())
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: CoreMsg) {
        match msg {
            CoreMsg::Proto(m) => self.on_proto_message(ctx, from, m),
            CoreMsg::Sync(m) => {
                match self.with_sync(ctx, |sync, side| sync.on_message(side, from, m)) {
                    None => {}
                    Some(SyncDone::Released(_)) => self.barrier_released(ctx),
                    Some(SyncDone::Acquired(lock)) => {
                        self.unpark(
                            format_args!("lock {lock} acquired"),
                            |p| matches!(p.op, DsmOp::Acquire(l) if l == lock),
                        );
                        ctx.complete_op(());
                    }
                }
            }
        }
    }

    fn on_nic(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: CoreMsg) {
        // One-sided deliveries carry only coherence traffic; sync
        // messages never travel one-sided.
        let CoreMsg::Proto(m) = msg else {
            panic!("{}: sync message arrived as a NIC-level delivery", self.me)
        };
        self.on_proto_message(ctx, from, m);
    }
}

impl DsmNode {
    /// A coherence message arrived, by software delivery or as a
    /// NIC-level event.
    fn on_proto_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, m: ProtoMsg) {
        let mut events = Vec::new();
        let mut io = Io { ctx };
        let mem = Self::mem(&self.frames);
        match m {
            // A multi-page envelope: dispatch the inner messages in
            // order, coalescing any replies they generate per
            // destination (a batch of requests earns a batch of
            // replies).
            ProtoMsg::Batch(msgs) => {
                let mut bio = BatchingIo::new(&mut io);
                for inner in msgs {
                    self.proto
                        .on_message(&mut bio, mem, from, inner, &mut events);
                }
                bio.flush();
            }
            m => self.proto.on_message(&mut io, mem, from, m, &mut events),
        }
        self.pump_proto_events(ctx, events);
    }
}
