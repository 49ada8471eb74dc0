//! Real cluster mode: one OS process per node, the `dsm-vm`
//! `mprotect`/`SIGSEGV` view as the application's memory, and the same
//! [`DsmNode`] protocol stack the simulator runs — but driven by the
//! socket reactor over localhost UDP, wrapped in the reliable
//! transport ([`dsm_net::Reliable`]) because real datagrams drop.
//!
//! # Architecture
//!
//! Two threads per node share the runtime — [`SocketRt`] (UDP socket,
//! timers, retransmission) and frame table — under one lock:
//!
//! * the **application thread** runs the user program against a
//!   [`dsm_vm::ClusterView`] — plain loads and stores, with protection
//!   violations parking the thread in the view's signal handler. A sync
//!   call runs here: submit, then dispatch loopback messages and due
//!   timers, so an op needing no datagram completes without crossing a
//!   thread. An op waiting on the network is parked for the other thread;
//! * the **serving thread** serves the view's parked fault (it becomes a
//!   protocol op, resolved and resumed right here), else dispatches one
//!   event, completing a parked call whose reply came. With nothing to
//!   dispatch it sleeps *without the runtime* in one `ppoll` until a
//!   datagram, the next retransmit deadline or the view's doorbell
//!   ([`dsm_vm::ClusterView::doorbell`]), which rings for a fault, for
//!   teardown, and for a call that set a timer due before the sleep ends.
//!
//! A node is usually alone in its process, but nothing requires it:
//! views are independent, so [`run_in_threads`] runs a whole cluster as
//! threads of one process.
//!
//! # View ↔ frame reconciliation
//!
//! The protocol operates on the node's frame table; the application
//! operates on the mmap view. The runtime reconciles the two at every
//! dispatch boundary, at the cost of the pages that changed:
//!
//! * **out** (before any op): the pages writable in the view are copied
//!   into their frames, so releases/barriers flush and peers are served
//!   the application's bytes;
//! * **in** (after any event): each page in the frame table's change log
//!   ([`FrameTable::track_changes`]) or left pending by an earlier pass
//!   gets its view protection aligned with its frame access. Rights are
//!   *raised* only after a fault or a sync op, while the program is
//!   parked in it; after a datagram under a running program a raise
//!   stays pending. An install opens the page read-write for its copy,
//!   so a store racing it would land unseen by the protocol — no twin,
//!   no write notice.
//!
//! A write fault on a readable page resolves as a protocol write of
//! the page's current bytes (contents unchanged, ownership acquired);
//! a cold write takes the classic two-fault upgrade. Under `lrc`,
//! writers of different bytes of one page keep their bytes when
//! barriers or different locks order them: the write fault twins the
//! page and the release ships a diff. Under a single-writer protocol a
//! write fault moves the whole page, so such writers lose updates, and
//! a program that races inside a page is not sequentially consistent
//! here: a store can land after the reactor copied the page out.
//!
//! Supported protocols are those whose row says
//! [`crate::Facts::page_fault_driven`]: every coherence action
//! shows as a change of access rights, so page write permission *is*
//! the protocol's write grant. [`run_cluster_node`] refuses the others
//! with the reason their row gives.

use std::net::{SocketAddr, UdpSocket};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier, Mutex, PoisonError};
use std::time::Duration;

use crate::lease::FrameCell;
use crate::node::{DsmNode, DsmOp, OpBuf, OpData};
use crate::{DsmConfig, ProtocolKind};
use dsm_mem::{Access, FrameTable, GlobalAddr, PageId, SpaceLayout};
use dsm_net::{wrap_fleet, NodeId, Reliable, SimTime, SocketRt};
use dsm_sync::{BarrierId, LockId};
use dsm_vm::cluster::{ACC_NONE, ACC_READ, ACC_WRITE};
use dsm_vm::{ClusterView, ViewFault};

/// The application's handle in cluster mode: direct view memory for
/// data, the node's runtime, taken on this thread, for synchronization.
/// The data API mirrors [`crate::Dsm`] where page-transparent access allows.
pub struct ClusterDsm<'v> {
    view: &'v ClusterView,
    runtime: &'v Mutex<Runtime<'v>>,
    /// The serving loop's answer to a call it completed.
    answer: mpsc::Receiver<()>,
    me: NodeId,
    nnodes: u32,
}

impl ClusterDsm<'_> {
    pub fn id(&self) -> NodeId {
        self.me
    }

    pub fn nodes(&self) -> u32 {
        self.nnodes
    }

    /// Run a sync op on this thread; one still waiting on the network is
    /// parked for the serving loop, which completes and answers it.
    fn sync(&self, op: DsmOp) {
        let acquire_like = !matches!(op, DsmOp::Release(_));
        let mut rt = self.runtime.lock().expect(POISONED);
        rt.reconcile_out();
        rt.rt.submit(op);
        let mut done = rt.rt.take_reply().is_some();
        while !done && rt.rt.dispatch_due() {
            done = rt.rt.take_reply().is_some();
        }
        rt.parked = (!done).then_some(acquire_like);
        if done {
            rt.finish_sync(acquire_like);
        }
        // A retransmit timer the op set, due before the serving loop's
        // sleep ends, must shorten it; a datagram wakes the loop itself.
        let due = rt.rt.next_deadline();
        if due.is_some_and(|at| rt.wake_at.is_none_or(|w| at < w)) {
            self.view.ring();
            rt.rings += 1;
            rt.wake_at = due;
        }
        drop(rt);
        if !done {
            self.answer.recv().expect("node runtime gone");
        }
    }

    pub fn read_u64(&self, addr: GlobalAddr) -> u64 {
        u64::from_le(self.view.read::<u64>(addr.0))
    }

    pub fn write_u64(&self, addr: GlobalAddr, v: u64) {
        self.view.write::<u64>(addr.0, v.to_le());
    }

    pub fn read_f64(&self, addr: GlobalAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    pub fn write_f64(&self, addr: GlobalAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    pub fn acquire(&self, lock: LockId) {
        self.sync(DsmOp::Acquire(lock));
    }

    pub fn release(&self, lock: LockId) {
        self.sync(DsmOp::Release(lock));
    }

    pub fn with_lock<T>(&self, lock: LockId, f: impl FnOnce(&Self) -> T) -> T {
        self.acquire(lock);
        let out = f(self);
        self.release(lock);
        out
    }

    pub fn barrier(&self, id: BarrierId) {
        self.sync(DsmOp::Barrier(id));
    }
}

impl Drop for ClusterDsm<'_> {
    /// Stop the serving loop and ring, so that a loop asleep sees it —
    /// also when the program unwinds, so the panic reaches the caller.
    fn drop(&mut self) {
        let mut rt = self.runtime.lock().unwrap_or_else(PoisonError::into_inner);
        rt.stopped = true;
        self.view.stop();
    }
}

const POISONED: &str = "a panic inside the node runtime";

/// The node's runtime: socket runtime + frame table + view, reconciled
/// at every dispatch boundary. Whichever thread holds it runs it.
struct Runtime<'v> {
    rt: SocketRt<Reliable<DsmNode>>,
    frames: Arc<FrameCell>,
    view: &'v ClusterView,
    layout: SpaceLayout,
    /// Lazy release consistency: coherence is only guaranteed at
    /// acquire-type events, and a page can be *byte-stale while its
    /// frame access is unchanged* (a home copy with unfetched remote
    /// diffs stays readable; the diffs fold in when an op touches it).
    /// Frame-access reconciliation cannot see that, so after every
    /// acquire/barrier the whole view is revoked instead: the next
    /// touch of each page faults into a protocol op, which is exactly
    /// the "fetch missing diffs on access" moment LRC defines.
    lazy: bool,
    /// The program's handle is gone: the serving loop exits.
    stopped: bool,
    /// A call left to the serving loop: `Some(acquire_like)`.
    parked: Option<bool>,
    /// Doorbell bytes calls wrote, for the serving loop to take.
    rings: usize,
    /// When the serving loop's sleep ends unless woken (`None`: never).
    wake_at: Option<SimTime>,
    /// Besides the frames' change log, pages whose view level may differ:
    /// deferred raises, `release_view`'s revokes, at start every page.
    pending: Vec<usize>,
    /// The pages the view holds write rights on.
    writable: Vec<usize>,
    /// A read fault's landing buffer.
    buf: Vec<u8>,
}

impl Runtime<'_> {
    /// Only the holder of the runtime touches the frame table (no leases
    /// in cluster mode), so each call site takes a fresh exclusive
    /// borrow under the same discipline as the kernel path.
    #[allow(clippy::mut_from_ref)]
    fn mem(frames: &FrameCell) -> &mut FrameTable {
        // SAFETY: see above — one holder of the runtime at a time.
        unsafe { &mut *frames.get() }
    }

    fn frame_level(&self, page: usize) -> u8 {
        // `Access` counts up as the view's levels do.
        const _: () = assert!(Access::Read as u8 == ACC_READ && Access::Write as u8 == ACC_WRITE);
        Self::mem(&self.frames).access(PageId(page)) as u8
    }

    /// View → frames: publish the application's bytes on every page it
    /// holds write rights to, so flushes, diffs, and serves see them.
    fn reconcile_out(&mut self) {
        let mem = Self::mem(&self.frames);
        for &page in &self.writable {
            // A frame downgraded since the grant refuses the copy; the
            // view keeps the bytes and they flow out with the next
            // write-fault payload instead.
            if mem.access(PageId(page)) == Access::Write {
                let frame = mem.page_bytes_mut(PageId(page)).expect("frame has bytes");
                self.view.snapshot_page(page, frame);
            }
        }
    }

    /// Frames → view: align the mapping of every page whose frame
    /// changed, or that an earlier pass left behind, with its frame
    /// access. `raise` only while the program is parked: see the module
    /// doc.
    fn reconcile_in(&mut self, raise: bool) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.extend(Self::mem(&self.frames).take_changes().map(|p| p.0));
        pending.sort_unstable();
        pending.dedup();
        pending.retain(|&page| !self.align(page, raise));
        self.pending = pending;
        if cfg!(debug_assertions) && raise {
            // After a raise pass every page agrees; one the log missed fails.
            for page in 0..self.view.pages() {
                let va = self.view.access(page);
                assert_eq!(va, self.frame_level(page), "page {page} left unaligned");
                assert_eq!(self.writable.contains(&page), va == ACC_WRITE);
            }
        }
    }

    /// Give `page` its frame's access level in the view; false, and
    /// nothing done, if that raises it and `raise` is off.
    fn align(&mut self, page: usize, raise: bool) -> bool {
        let fa = self.frame_level(page);
        let va = self.view.access(page);
        if fa == va || (fa > va && !raise) {
            return fa == va;
        }
        if fa == ACC_NONE {
            // Invalidated under the application's feet — legal for DRF
            // programs (it cannot be touching the page now). The frame's
            // bytes went with its copy, and the next install rewrites the
            // page whole, so its memory goes back to the kernel.
            self.view.release_page(page);
        } else if va == ACC_NONE || fa == ACC_WRITE {
            // Fresh install or upgrade: the frame holds the truth
            // (fetched page, or our bytes merged with remote diffs), and
            // the application is parked in the op that caused this.
            let bytes = Self::mem(&self.frames)
                .page_bytes(PageId(page))
                .expect("readable frame has bytes");
            self.view.install_page(page, bytes, fa);
        } else {
            // Write → read downgrade: keep the view bytes (already
            // reconciled out), just drop the right.
            self.view.set_access(page, ACC_READ);
        }
        if fa == ACC_WRITE {
            self.writable.push(page);
        } else if va == ACC_WRITE {
            self.writable.retain(|&p| p != page);
        }
        true
    }

    /// Revoke every page the view holds and free its memory: the next
    /// install rewrites a page whole.
    fn release_view(&mut self) {
        for page in 0..self.view.pages() {
            if self.view.access(page) != ACC_NONE {
                self.view.release_page(page);
                self.pending.push(page);
            }
        }
        self.writable.clear();
    }

    /// A sync op completed while its program is parked in it: raise
    /// rights, and under `lazy` revoke the view after an acquire.
    fn finish_sync(&mut self, acquire_like: bool) {
        self.reconcile_in(true);
        if self.lazy && acquire_like {
            // See the `lazy` field: frame access cannot express "bytes
            // stale behind an unchanged grant", so make the application
            // re-fault everything it touches after the sync point.
            self.release_view();
        }
    }

    /// Resolve a parked access as a protocol op and resume its thread.
    fn service_fault(&mut self, fault: ViewFault) {
        self.reconcile_out();
        let ps = self.layout.geometry.page_size();
        let addr = GlobalAddr(fault.page * ps);
        // Recompute the fault kind from the *current* view level: an
        // invalidation may have landed between the trap and now, in
        // which case the store needs the page first (two-fault path).
        if self.view.access(fault.page) == ACC_NONE {
            self.buf.resize(ps, 0);
            let op = DsmOp::Read {
                addr,
                buf: OpBuf::new(&mut self.buf),
                hint: None,
            };
            self.rt.run_op(op, Duration::MAX);
        } else {
            // Readable copy ⇒ current copy (a remote writer would have
            // invalidated us first), so a protocol write of the page's
            // own bytes changes nothing but acquires write ownership.
            let payload = Self::mem(&self.frames)
                .page_bytes(PageId(fault.page))
                .expect("readable frame has bytes")
                .to_vec();
            let op = DsmOp::Write {
                addr,
                data: OpData::new(&payload),
            };
            self.rt.run_op(op, Duration::MAX);
        }
        self.reconcile_in(true);
        self.view.finish_fault();
    }
}

/// The serving thread: take the calls' rings, then serve a parked
/// fault, else dispatch one event, else sleep without the runtime. A
/// fault or a ring leaves the doorbell readable until taken here, so
/// none is slept through.
fn serve(runtime: &Mutex<Runtime<'_>>, answer: mpsc::SyncSender<()>) {
    loop {
        let mut rt = runtime.lock().expect(POISONED);
        if rt.stopped {
            break;
        }
        for _ in 0..std::mem::take(&mut rt.rings) {
            rt.view.answer();
        }
        if let Some(fault) = rt.view.pending_fault() {
            rt.service_fault(fault);
        } else if rt.rt.dispatch_due() || rt.rt.recv_one() {
            // Complete a parked call whose reply came, or lower the
            // rights the event took away — also once the program has
            // returned, which keeps the frames' change log drained.
            let parked = rt.parked;
            match parked {
                Some(acquire_like) if rt.rt.take_reply().is_some() => {
                    rt.parked = None;
                    rt.finish_sync(acquire_like);
                    let _ = answer.send(());
                }
                Some(_) => {}
                None => rt.reconcile_in(false),
            }
        } else {
            rt.wake_at = rt.rt.next_deadline();
            let wait = rt.rt.waiter(Duration::MAX);
            drop(rt);
            wait.sleep();
        }
    }
}

/// Whether cluster mode can run `protocol`: it must be page-fault
/// driven ([`crate::Facts::page_fault_driven`]). The refusal names the
/// fact and the reason the protocol's row gives.
pub fn supports(protocol: ProtocolKind) -> Result<(), String> {
    protocol.facts().page_fault_driven.map_err(|why| {
        format!("cluster mode cannot run `{protocol}`: it is not page-fault driven — {why}")
    })
}

/// Run one node of a multi-process DSM cluster.
///
/// `sock` must already be bound; `peers[i]` is node `i`'s address
/// (including our own at `me`). The protocol stack, page size, and
/// cost model come from `cfg` exactly as in the simulator — every
/// process must be given an identical `cfg`.
///
/// `linger` runs after `program` returns and the view's memory is
/// given back, while this node still serves peers from its frames;
/// return from it once the whole cluster is known to be done (e.g.
/// after a coordinator's shutdown message).
/// Real sockets are not deterministic — matching *results* with the
/// simulator, not matching traffic, is the contract.
///
/// A panic in `program` or `linger` stops this node's reactor and is
/// re-raised on the caller's thread.
///
/// # Panics
///
/// At entry, with the refusal of [`supports`], if page protection
/// cannot drive `cfg.protocol`: running it anyway would return wrong
/// results silently.
pub fn run_cluster_node<V, F, L>(
    cfg: &DsmConfig,
    me: NodeId,
    sock: UdpSocket,
    peers: Vec<SocketAddr>,
    program: F,
    linger: L,
) -> V
where
    V: Send,
    F: FnOnce(&ClusterDsm<'_>) -> V + Send,
    L: FnOnce(&V) + Send,
{
    assert_eq!(peers.len() as u32, cfg.nnodes, "one address per node");
    if let Err(refusal) = supports(cfg.protocol) {
        panic!("{refusal}");
    }
    let layout = cfg.layout();
    let ps = layout.geometry.page_size();
    let pages = layout.total_bytes() / ps;

    let nodes = cfg.build_nodes();
    let frames = nodes[me.index()].frames_handle();
    let mut fleet = wrap_fleet(nodes, &cfg.model);
    // Keep only our node; the rest live in their own processes.
    let node = fleet.swap_remove(me.index());
    drop(fleet);

    let view = ClusterView::new(pages, ps).expect("mmap cluster view");
    let mut rt = SocketRt::new(node, me, sock, peers, cfg.model.clone());
    rt.wake_on(view.doorbell());
    rt.start();
    Runtime::mem(&frames).track_changes();
    let runtime = Mutex::new(Runtime {
        rt,
        frames,
        view: &view,
        layout,
        lazy: cfg.protocol.facts().lazy,
        stopped: false,
        parked: None,
        rings: 0,
        wake_at: None,
        pending: (0..pages).collect(),
        writable: Vec::new(),
        buf: Vec::new(),
    });
    // One call in flight at a time, so an answer never blocks its send.
    let (answer, answers) = mpsc::sync_channel(1);

    std::thread::scope(|s| {
        let runtime = &runtime;
        s.spawn(move || serve(runtime, answer));

        // Leaving this closure drops the handle, which stops the serving
        // loop — also when `program` or `linger` panics, so the scope can
        // join and re-raise the panic on the caller's thread.
        let dsm = ClusterDsm {
            view: &view,
            runtime,
            answer: answers,
            me,
            nnodes: cfg.nnodes,
        };
        let result = program(&dsm);
        // Publish what the program wrote last; its view's memory goes
        // while the node lingers.
        let mut rt = runtime.lock().expect(POISONED);
        rt.reconcile_out();
        rt.release_view();
        drop(rt);
        // Keep serving peers until the embedder says the cluster is
        // done, then tear down.
        linger(&result);
        result
    })
}

/// Run a whole cluster as threads of this process: one loopback UDP
/// socket and one [`run_cluster_node`] per node, each on its own
/// thread, every node running `program`. Returns the results in rank
/// order.
///
/// Every node keeps serving its peers until all programs have
/// returned. A program that panics fails the run: its node keeps
/// serving meanwhile, and once every node is done the first panic is
/// re-raised on the caller's thread with its own payload. Peers waiting
/// in a barrier the panicked program never reached are not released,
/// so such a run still hangs.
pub fn run_in_threads<V, F>(cfg: &DsmConfig, program: F) -> Vec<V>
where
    V: Send,
    F: Fn(&ClusterDsm<'_>) -> V + Sync,
{
    let socks: Vec<UdpSocket> = (0..cfg.nnodes)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind a loopback UDP socket"))
        .collect();
    let peers: Vec<SocketAddr> = socks
        .iter()
        .map(|s| s.local_addr().expect("a bound socket has an address"))
        .collect();
    let all_done = Barrier::new(socks.len());
    let (program, all_done) = (&program, &all_done);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let nodes: Vec<_> = socks
            .into_iter()
            .enumerate()
            .map(|(rank, sock)| {
                let peers = peers.clone();
                s.spawn(move || {
                    run_cluster_node(
                        cfg,
                        NodeId(rank as u32),
                        sock,
                        peers,
                        |d| catch_unwind(AssertUnwindSafe(|| program(d))),
                        |_| {
                            all_done.wait();
                        },
                    )
                })
            })
            .collect();
        nodes.into_iter().map(|node| node.join()).collect()
    });
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok(Ok(v)) => v,
            Ok(Err(payload)) | Err(payload) => resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-node cluster exercises the whole fault → protocol → view
    /// pipeline in-process (multi-process tests live in the bench
    /// crate, driving the `dsm-cluster` binary).
    #[test]
    fn single_node_cluster_matches_simulator() {
        let cfg = DsmConfig::new(1, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size());
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap()];

        let cluster = run_cluster_node(
            &cfg,
            NodeId(0),
            sock,
            peers,
            |dsm| {
                dsm.write_u64(GlobalAddr(16), 41);
                dsm.barrier(0);
                let v = dsm.read_u64(GlobalAddr(16));
                dsm.with_lock(3, |d| {
                    let c = d.read_u64(GlobalAddr(8192));
                    d.write_u64(GlobalAddr(8192), c + 1);
                });
                v + dsm.read_u64(GlobalAddr(8192))
            },
            |_| {},
        );

        let sim = crate::run_dsm(&cfg, |dsm| {
            dsm.write_u64(GlobalAddr(16), 41);
            dsm.barrier(0);
            let v = dsm.read_u64(GlobalAddr(16));
            dsm.with_lock(3, |d| {
                let c = d.read_u64(GlobalAddr(8192));
                d.write_u64(GlobalAddr(8192), c + 1);
            });
            v + dsm.read_u64(GlobalAddr(8192))
        });

        assert_eq!(cluster, sim.results[0]);
        assert_eq!(cluster, 42);
    }

    /// A request costs its own service, not a scheduler tick: a
    /// one-node cluster has no network to wait for, so 200 barriers and
    /// a read of 200 cold pages (a fault each) are 400 trips through the
    /// reactor. A reactor that looks at the application once per socket
    /// wait (8 ms at HZ = 250) took 2.7 s; one woken by the request
    /// takes 22 ms in a debug build, and the bound leaves 10× either way.
    #[test]
    fn requests_wake_the_reactor_at_once() {
        const N: usize = 200;
        let ps = dsm_vm::os_page_size();
        let cfg = DsmConfig::new(1, ProtocolKind::IvyFixed)
            .heap_bytes(N * ps)
            .page_size(ps);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap()];
        let t = std::time::Instant::now();
        let sum = run_cluster_node(
            &cfg,
            NodeId(0),
            sock,
            peers,
            |d| {
                for b in 0..N as u32 {
                    d.barrier(b);
                }
                (0..N).map(|p| d.read_u64(GlobalAddr(p * ps))).sum::<u64>()
            },
            |_| {},
        );
        let took = t.elapsed();
        assert_eq!(sum, 0);
        assert!(took < Duration::from_millis(250), "took {took:?}");
    }

    #[test]
    fn panicking_program_fails_the_run() {
        let cfg = DsmConfig::new(1, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size());
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap()];
        let run = std::panic::AssertUnwindSafe(|| {
            run_cluster_node(
                &cfg,
                NodeId(0),
                sock,
                peers,
                |dsm| -> u64 {
                    dsm.write_u64(GlobalAddr(16), 1);
                    panic!("program failed")
                },
                |_| {},
            )
        });
        let payload = std::panic::catch_unwind(run).expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"program failed"));
    }

    /// A protocol that page protection cannot drive is refused at
    /// entry, whoever the caller is, with its row's reason — not run
    /// to a silently wrong result.
    #[test]
    fn protocols_that_are_not_page_fault_driven_are_refused_with_the_reason() {
        let refused: Vec<_> = ProtocolKind::EVERY
            .into_iter()
            .filter_map(|kind| Some((kind, kind.facts().page_fault_driven.err()?)))
            .collect();
        assert!(refused.iter().any(|(kind, _)| kind.name() == "update"));
        for (kind, why) in refused {
            let cfg = DsmConfig::new(1, kind)
                .heap_bytes(1 << 16)
                .page_size(dsm_vm::os_page_size());
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            let peers = vec![sock.local_addr().unwrap()];
            let run = std::panic::AssertUnwindSafe(|| {
                run_cluster_node(&cfg, NodeId(0), sock, peers, |_| (), |_| {})
            });
            let payload = std::panic::catch_unwind(run).expect_err("refused at entry");
            let said = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(
                said.contains("not page-fault driven") && said.contains(why),
                "{kind}: {said}"
            );
        }
    }

    /// The `dsm-cluster` demo workload: page `i` holds node `i`'s u64
    /// slot, page `n` a lock-guarded counter.
    fn demo(d: &ClusterDsm<'_>, page: usize) -> u64 {
        let (rank, n) = (d.id().0 as u64, d.nodes() as u64);
        let ctr = GlobalAddr(n as usize * page);
        d.write_u64(GlobalAddr(rank as usize * page), (rank + 1) * 10);
        d.barrier(0);
        let sum: u64 = (0..n as usize)
            .map(|i| d.read_u64(GlobalAddr(i * page)))
            .sum();
        for _ in 0..3 {
            d.with_lock(1, |d| {
                let c = d.read_u64(ctr);
                d.write_u64(ctr, c + rank + 1);
            });
        }
        d.barrier(1);
        sum * 1000 + d.read_u64(ctr)
    }

    /// The demo on a whole cluster as threads of this process.
    fn demo_in_threads(n: u32, proto: ProtocolKind) {
        let page = dsm_vm::os_page_size();
        let cfg = DsmConfig::new(n, proto)
            .heap_bytes((n as usize + 1) * page)
            .page_size(page);
        let results = run_in_threads(&cfg, |d| demo(d, page));
        // Slot sum of `(i+1)*10`, scaled, plus three lock-guarded
        // rounds of `+ (i+1)` from each node.
        let tri = (n as u64) * (n as u64 + 1) / 2;
        assert_eq!(results, vec![10 * tri * 1000 + 3 * tri; n as usize]);
    }

    /// A panicking program fails the run, and only after its peers are
    /// done: node 0 faults on a page node 1 manages after node 1's
    /// program has panicked, and is still served.
    #[test]
    fn a_panic_in_threads_reaches_the_caller_after_its_peers_are_served() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let page = dsm_vm::os_page_size();
        let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
            .heap_bytes(2 * page)
            .page_size(page);
        let (peer_gone, seen) = (AtomicBool::new(false), AtomicBool::new(false));
        let run = AssertUnwindSafe(|| {
            run_in_threads(&cfg, |d| {
                if d.id().0 == 1 {
                    peer_gone.store(true, Ordering::Release);
                    panic!("node 1 failed");
                }
                while !peer_gone.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(d.read_u64(GlobalAddr(page)), 0);
                seen.store(true, Ordering::Release);
            })
        });
        let payload = catch_unwind(run).expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 failed"));
        assert!(seen.load(Ordering::Acquire));
    }

    #[test]
    fn ivy_fixed_clusters_run_as_threads() {
        demo_in_threads(2, ProtocolKind::IvyFixed);
        demo_in_threads(4, ProtocolKind::IvyFixed);
    }

    #[test]
    fn ivy_dynamic_clusters_run_as_threads() {
        demo_in_threads(2, ProtocolKind::IvyDynamic);
        demo_in_threads(4, ProtocolKind::IvyDynamic);
    }

    /// Home-based write-invalidate is page-fault driven whoever serves
    /// the reads: over UDP the one-sided doorbells take the software
    /// path, as on any fabric without one-sided support.
    #[test]
    fn rdma_clusters_run_as_threads() {
        demo_in_threads(2, ProtocolKind::Rdma);
        demo_in_threads(4, ProtocolKind::Rdma);
    }

    #[test]
    fn lrc_cluster_runs_as_threads() {
        demo_in_threads(3, ProtocolKind::Lrc);
    }
}
