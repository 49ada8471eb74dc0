//! The [`Protocol`] trait: the contract between a coherence protocol
//! and the node runtime that embeds it.
//!
//! A protocol is a pure message-driven state machine. It never blocks;
//! instead it reports progress through [`ProtoEvent`]s and the runtime
//! decides when the parked application operation can retry or complete.

use crate::msg::{Piggy, ProtoMsg};
use dsm_mem::{FrameTable, GlobalAddr, PageId};
use dsm_net::trace::Kind;
use dsm_net::{CostModel, NodeId};
use dsm_sync::{LockId, SyncEnvelope};

/// Hard ceiling on the multi-page fault pipeline depth (demand page +
/// prefetch candidates). A protocol's row may clamp further via
/// [`crate::Facts::max_batch_depth`].
pub const MAX_BATCH_DEPTH: usize = 8;

/// Transport + environment a protocol sees (implemented by the runtime
/// over the simulator context).
pub trait ProtoIo {
    /// Send `msg` to `dst`.
    fn send(&mut self, dst: NodeId, msg: ProtoMsg);
    /// Send `msg` as a one-sided operation: on fabrics with one-sided
    /// support it is served by the destination's NIC (delivered without
    /// scheduling the destination's protocol thread; the kernel's
    /// `Deliver` record of it has the NIC bit set); everywhere else — older
    /// cost models, or a reliable transport interposed by a fault plan
    /// — it degrades to an ordinary [`ProtoIo::send`]. Either way it
    /// arrives at [`Protocol::on_message`].
    fn send_one_sided(&mut self, dst: NodeId, msg: ProtoMsg) {
        self.send(dst, msg);
    }
    /// The cost model in effect.
    fn model(&self) -> &CostModel;
    /// Record what only the protocol sees (see [`dsm_net::trace`]).
    fn rec(&mut self, _kind: Kind, _unit: u64, _bytes: u64) {}
}

/// Per-destination send coalescer: buffers every `send` and, on
/// [`BatchingIo::flush`], forwards each destination's messages as one
/// [`ProtoMsg::Batch`] when there are two or more (single messages
/// travel bare, keeping depth-1 traffic byte-identical to unbatched
/// runs). Destinations flush in first-send order, and messages within a
/// destination keep their send order, so batching never reorders the
/// per-link stream.
pub struct BatchingIo<'a> {
    inner: &'a mut dyn ProtoIo,
    buf: Vec<(NodeId, Vec<ProtoMsg>)>,
}

impl<'a> BatchingIo<'a> {
    pub fn new(inner: &'a mut dyn ProtoIo) -> Self {
        BatchingIo {
            inner,
            buf: Vec::new(),
        }
    }

    /// Forward everything buffered. Must be called before drop.
    pub fn flush(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        for (dst, mut msgs) in buf {
            if msgs.len() == 1 {
                self.inner.send(dst, msgs.pop().expect("len checked"));
            } else {
                self.inner.send(dst, ProtoMsg::Batch(msgs));
            }
        }
    }
}

impl Drop for BatchingIo<'_> {
    fn drop(&mut self) {
        debug_assert!(self.buf.is_empty(), "BatchingIo dropped without flush");
    }
}

impl ProtoIo for BatchingIo<'_> {
    fn send(&mut self, dst: NodeId, msg: ProtoMsg) {
        debug_assert!(
            !matches!(msg, ProtoMsg::Batch(..)),
            "nested Batch envelopes are not allowed"
        );
        match self.buf.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, msgs)) => msgs.push(msg),
            None => self.buf.push((dst, vec![msg])),
        }
    }
    fn send_one_sided(&mut self, dst: NodeId, msg: ProtoMsg) {
        // One-sided ops are never coalesced into a software Batch
        // envelope (that would re-route them through the destination's
        // protocol thread); they pass straight through.
        self.inner.send_one_sided(dst, msg);
    }
    fn model(&self) -> &CostModel {
        self.inner.model()
    }
    fn rec(&mut self, kind: Kind, unit: u64, bytes: u64) {
        self.inner.rec(kind, unit, bytes);
    }
}

/// Progress notifications from the protocol to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A previously faulting page now has sufficient rights; retry the
    /// parked operation.
    PageReady(PageId),
    /// An [`WriteOutcome::Async`] write has been globally performed.
    WriteDone,
    /// The flush started by [`Protocol::pre_release`] finished; the
    /// release/barrier may proceed.
    FlushDone,
    /// A previously missing object (see [`Protocol::obj_fetch`]) has
    /// arrived; retry the parked object operation.
    ObjReady(u32),
}

/// How the protocol disposed of an application write that could not be
/// performed locally.
#[derive(Debug)]
pub enum WriteOutcome {
    /// Rights now suffice (protocol fixed it synchronously); retry.
    Ready,
    /// A fault was issued for `PageId`; retry on
    /// [`ProtoEvent::PageReady`].
    Faulted(PageId),
    /// The protocol took over the write and has already performed it
    /// (e.g. the home applied it to the master copy); complete the op
    /// now, without retrying the frame-table write.
    Done,
    /// The protocol took over the write (update protocols); the data
    /// will not be written locally through the frame table. Complete on
    /// [`ProtoEvent::WriteDone`].
    Async,
}

/// A page-based coherence protocol.
///
/// Method order guarantees provided by the runtime:
/// * `pre_release` is called before every lock release *and* barrier
///   arrival; the sync operation proceeds only after it returns `true`
///   or [`ProtoEvent::FlushDone`] fires.
/// * `op_retired` is called after a previously faulted operation has
///   performed its access, letting single-writer protocols hand the
///   page to queued requesters without starving the local access.
pub trait Protocol: Send {
    /// One-time setup (install home pages, ...).
    fn on_start(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable) {}

    /// The application read-faulted on `pages[0]`; `pages[1..]` are
    /// prefetch candidates from the same sequential access (pages the
    /// runtime predicts it will read next, none currently readable).
    /// Returns `(demand_resolved, issued)` where `demand_resolved` is
    /// `true` when the demand fault was satisfied synchronously (rights
    /// now sufficient; otherwise [`ProtoEvent::PageReady`] must follow)
    /// and `issued` lists the extra pages the protocol actually started
    /// a read transaction for — each must eventually fire its own
    /// [`ProtoEvent::PageReady`].
    ///
    /// This is the only read-fault entry point; a depth-1 run calls it
    /// with the demand page alone. Protocols that cannot pipeline
    /// simply ignore `pages[1..]` and return an empty `issued`.
    ///
    /// Prefetched transactions must not be held open awaiting op
    /// retirement (the runtime may be blocked on the demand page while
    /// another node's progress depends on a prefetched one — classic
    /// hold-and-wait); protocols that keep per-transaction server-side
    /// state confirm prefetched pages immediately on arrival instead.
    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>);

    /// The application write-faulted on `page`. Same synchronous-result
    /// contract as [`Protocol::read_fault_batch`]'s `demand_resolved`.
    /// The default panics: it is for a row that overrides
    /// [`Protocol::write_op`] to take every write there.
    fn write_fault(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable, page: PageId) -> bool {
        unreachable!("page {}: this row's writes go through write_op", page.0)
    }

    /// An application write whose rights were insufficient. The default
    /// maps it onto [`Protocol::write_fault`] of the first offending
    /// page; update-style protocols override this to take over the
    /// whole write.
    fn write_op(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        addr: GlobalAddr,
        data: &[u8],
    ) -> WriteOutcome {
        use dsm_mem::Access;
        match mem.first_insufficient(addr, data.len(), Access::Write) {
            None => WriteOutcome::Ready,
            Some(page) => {
                if self.write_fault(io, mem, page) {
                    WriteOutcome::Ready
                } else {
                    WriteOutcome::Faulted(page)
                }
            }
        }
    }

    /// A coherence message arrived.
    fn on_message(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        msg: ProtoMsg,
        events: &mut Vec<ProtoEvent>,
    );

    /// A previously faulted operation has now performed its access.
    fn op_retired(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable) {}

    /// Consistency work required before a release (`lock` is `Some`) or
    /// barrier arrival (`lock` is `None`). Return `true` if none (or
    /// done synchronously); otherwise emit [`ProtoEvent::FlushDone`]
    /// later.
    fn pre_release(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _lock: Option<LockId>,
    ) -> bool {
        true
    }

    /// Information to attach to this node's request for `lock`.
    fn acquire_reqinfo(&mut self, _mem: &mut FrameTable, _lock: LockId) -> Piggy {
        Piggy::None
    }

    /// Payload for granting `lock` to `to`, given the requester's
    /// `reqinfo`.
    fn grant_piggy(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _lock: LockId,
        _to: NodeId,
        _reqinfo: &Piggy,
    ) -> Piggy {
        Piggy::None
    }

    /// Payload deposited with a centralized lock server on release
    /// (the next grantee is unknown, so this must suffice for anyone).
    fn release_piggy(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _lock: LockId,
    ) -> Piggy {
        Piggy::None
    }

    /// Apply the payload received with a lock grant.
    fn on_acquired(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _lock: LockId,
        _piggy: Piggy,
    ) {
    }

    /// Consistency payload attached to this node's barrier arrival
    /// (called after `pre_release` completed). The default carries
    /// nothing, which is right for every protocol whose writes are
    /// globally performed, or flushed by `pre_release`, before the sync
    /// op starts.
    fn sync_depart(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable) -> Piggy {
        Piggy::None
    }

    /// Apply the payload received with a barrier release — the other
    /// half of the [`Protocol::sync_depart`] pair. For protocols with
    /// retirement schemes (LRC interval GC) this is also where
    /// epoch-old metadata is applied-and-dropped. Same default reason
    /// as [`Protocol::sync_depart`]: nothing arrives, nothing to do.
    fn sync_arrive(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable, _piggy: Piggy) {}

    /// Root only: merge everyone's barrier contributions into one
    /// payload per node (must return exactly one envelope per node id).
    fn merge_barrier(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        arrivals: Vec<SyncEnvelope<Piggy>>,
        nnodes: u32,
    ) -> Vec<SyncEnvelope<Piggy>> {
        let _ = arrivals;
        (0..nnodes)
            .map(|i| SyncEnvelope::new(NodeId(i), Piggy::None))
            .collect()
    }

    // ---- object-granularity sharing -------------------------------

    /// The application wants the current bytes of object `obj`
    /// (`write = true` additionally requests ownership, pinning the
    /// object locally until [`Protocol::obj_publish`]). Returns the
    /// bytes when they are available right now; otherwise the protocol
    /// has started a fetch and must eventually emit
    /// [`ProtoEvent::ObjReady`] for `obj`, at which point the runtime
    /// retries. Only protocols whose row says
    /// [`crate::Facts::object_ops`] answer; the rest refuse.
    fn obj_fetch(&mut self, _io: &mut dyn ProtoIo, _obj: u32, _write: bool) -> Option<&[u8]> {
        panic!("this protocol does not support object operations");
    }

    /// The application finished mutating `obj` (acquired earlier via
    /// `obj_fetch(obj, true)`): install the new image and unpin the
    /// object, letting queued remote requests drain. Always
    /// synchronous. Same refusal as [`Protocol::obj_fetch`].
    fn obj_publish(&mut self, _io: &mut dyn ProtoIo, _obj: u32, _data: &[u8]) {
        panic!("this protocol does not support object operations");
    }

    // ---- fault hooks (crash/partition robustness) -----------------

    /// This node just crashed: all volatile protocol state is gone.
    /// Called *after* the runtime has reset the frame table; the
    /// protocol must shed in-flight transaction state here (the default
    /// is fine only for protocols that keep none). No messages may be
    /// sent — the node is down.
    fn on_crash(&mut self, _mem: &mut FrameTable) {}

    /// This node just recovered from a crash with cold state. Protocols
    /// that can rebuild (quorum re-sync, directory re-join) start that
    /// here; protocols that cannot simply continue and rely on the
    /// failure detector to flag the run.
    fn on_recover(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable) {}

    /// The kernel announced that `peer` crashed (deterministic notice,
    /// not a timeout-based suspicion). Replicated protocols drop the
    /// peer from their live set and re-route pending quorums.
    fn on_peer_down(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _peer: NodeId,
        _events: &mut Vec<ProtoEvent>,
    ) {
    }
}
