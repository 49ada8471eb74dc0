//! Real cluster mode: one OS process per node, the `dsm-vm`
//! `mprotect`/`SIGSEGV` view as the application's memory, and the same
//! [`DsmNode`] protocol stack the simulator runs — but driven by the
//! socket reactor over localhost UDP, wrapped in the reliable
//! transport ([`dsm_net::Reliable`]) because real datagrams drop.
//!
//! # Architecture
//!
//! Two threads per node share the runtime — [`SocketRt`] (UDP socket,
//! timers, retransmission) and frame table — under one lock. Every op
//! takes one path, `Runtime::run`, on the thread that holds the runtime:
//! it runs to its end there, and a wait on the network sleeps in the
//! runtime's own `ppoll`, serving peers meanwhile. The **application
//! thread** runs the program against a [`dsm_vm::ClusterView`]. Each
//! access first checks the view's rights, one atomic load per page
//! ([`ClusterView::grants`]): a hit loads or stores through the view; a
//! miss runs the access itself as a read or write op on this thread, as
//! the simulator does, and then gives the view of each page its frame's
//! right. A cold store is one write op, not a read fault and an upgrade.
//! Sync calls take the same path. The **serving thread** dispatches one
//! event at a time, else sleeps *without the runtime* until a datagram,
//! the next retransmit deadline or the view's doorbell
//! ([`dsm_vm::ClusterView::doorbell`]), rung for a trap, for teardown,
//! and by a call that set a timer due before that sleep ends.
//!
//! The serving thread never queues on the runtime's lock. A program
//! that misses takes the runtime for each op and takes it again at once
//! for the next, so a waiter on the lock woke at every release only to
//! find it taken: a convoy of one futex wait per op. Finding the runtime
//! held, the serving thread leaves the socket and the timers to the
//! holder, whose own wait serves them, and sleeps [`GRACE`] on the
//! doorbell alone (a trap or the stop still wakes it at once). If the
//! runtime is still held, it parks, and the program's next release
//! unparks it; a wake that loses the runtime again starts a fresh grace,
//! not another park. A call rings for a timer only while the serving
//! thread is in its full wait: asleep anywhere else, it takes the
//! runtime, and so the timers, within a grace of the next release.
//!
//! The trap path is for what a check cannot exclude: a right the serving
//! thread revokes between the check and the access. That access traps;
//! the view's signal handler parks the thread and rings, and the serving
//! thread resolves it as a protocol op on the byte it trapped at — a
//! read if the page is unreadable now, else a write of that byte's
//! current value (contents unchanged, ownership acquired) — and resumes
//! it.
//!
//! A node is usually alone in its process, but nothing requires it:
//! views are independent, so [`run_in_threads`] runs a whole cluster as
//! threads of one process.
//!
//! # One memory
//!
//! The view and the node's frame table are one memory: the frame table
//! keeps its page bytes in the view's alias ([`ClusterView::store`]) and
//! sets the view's protection whenever a frame's access changes, so a
//! page the protocol installs, patches in place or revokes is at once
//! what the program sees. The one rule: the table write-protects a page
//! the program can write before it hands the bytes out, overwrites or
//! evicts them, so no store lands behind the copy. A page lowered that
//! way while its frame kept write rights comes back at its next miss.
//!
//! Supported protocols are those whose row says
//! [`crate::Facts::page_fault_driven`]; [`run_cluster_node`] refuses
//! the others with the reason their row gives.

use std::net::{SocketAddr, UdpSocket};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::Duration;

use crate::lease::FrameCell;
use crate::node::{DsmNode, DsmOp, OpBuf, OpData};
use crate::{Dsm, DsmConfig, Engine, ProtocolKind, Window};
use dsm_mem::{Access, FrameTable, GlobalAddr, PageId};
use dsm_net::{
    loopback_rel, Dur, NetStats, NodeId, Reliable, SimTime, SocketRt, Wait, LOOPBACK_REL,
};
use dsm_vm::cluster::{ACC_READ, ACC_WRITE};
use dsm_vm::{ClusterView, ViewFault};

/// How long a serving thread that finds the runtime held sleeps on the
/// doorbell alone before it parks until the next release: the bound on
/// how late a peer is served after the program leaves the runtime. An
/// eighth of the loopback link's first RTO, 250 µs: long enough to span
/// most gaps between a missing program's ops, far below any timeout.
const GRACE: Duration = Duration::from_nanos(LOOPBACK_REL.rto_initial.as_nanos() / 8);

/// The cluster engine: loads and stores on the node's view for data,
/// the node's runtime, taken on this thread, for synchronization.
pub struct Cluster<'v> {
    view: &'v ClusterView,
    node: &'v Shared<'v>,
    /// The serving thread, unparked at a release it waits for.
    serving: Thread,
    me: NodeId,
    nnodes: u32,
}

/// The application's handle in cluster mode: the [`Dsm`] vocabulary on
/// real pages.
pub type ClusterDsm<'v> = Dsm<'v, Cluster<'v>>;

impl<'v> Cluster<'v> {
    /// Run `op` to its end on this thread, as a fault runs on the
    /// serving one, then `then` on the runtime still held; then release
    /// it, unparking the serving thread if it waits for that.
    fn run(&self, op: DsmOp, then: impl FnOnce(&Runtime<'v>)) {
        let mut rt = self.node.runtime.lock().expect(POISONED);
        rt.run(op);
        // A timer due before the serving loop's full wait ends must
        // shorten it, unless a ring is unread; a datagram wakes the loop
        // itself, and a loop asleep elsewhere takes the timers at the
        // release.
        let due = rt.rt.next_deadline();
        let sooner = due.is_some_and(|at| rt.wake_at.is_none_or(|w| at < w));
        if !rt.rang && sooner && self.node.full.load(Ordering::Relaxed) {
            self.view.ring();
            rt.rang = true;
        }
        then(&rt);
        drop(rt);
        // With `Shared::park`'s fence: it sees the runtime free, or this
        // sees it parked.
        fence(Ordering::SeqCst);
        if self.node.want.swap(false, Ordering::Relaxed) {
            self.serving.unpark();
        }
    }

    /// A miss: the access runs as `op`, on the runtime, and the view of
    /// every page of its `len` bytes at `addr` then gets its frame's
    /// right, so the next access to them is a hit.
    #[cold]
    fn miss(&self, op: DsmOp, addr: GlobalAddr, len: usize) {
        self.run(op, |rt| rt.raise(addr, len));
    }
}

impl Engine for Cluster<'_> {
    fn id(&self) -> NodeId {
        self.me
    }

    fn nodes(&self) -> u32 {
        self.nnodes
    }

    /// A hit copies out of the view; a miss is a read op (see the
    /// module docs). `read_with` keeps the copying default: the serving
    /// thread may revoke or patch a view page under a program's borrow.
    fn read(&self, addr: GlobalAddr, buf: &mut [u8], _: Window) {
        if self.view.grants(addr.0, buf.len(), ACC_READ) {
            return self.view.read_bytes(addr.0, buf);
        }
        let len = buf.len();
        let (buf, hint) = (OpBuf::new(buf), None);
        self.miss(DsmOp::Read { addr, buf, hint }, addr, len);
    }

    /// A hit stores into the view; a miss is one write op.
    fn write(&self, addr: GlobalAddr, data: &[u8]) {
        if self.view.grants(addr.0, data.len(), ACC_WRITE) {
            return self.view.write_bytes(addr.0, data);
        }
        let op = DsmOp::Write {
            addr,
            data: OpData::new(data),
        };
        self.miss(op, addr, data.len());
    }

    /// A hit is one volatile load when `addr` is aligned.
    #[inline]
    fn read_u64(&self, addr: GlobalAddr, window: Window) -> u64 {
        if self.view.grants(addr.0, 8, ACC_READ) {
            return u64::from_le(self.view.read::<u64>(addr.0));
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b, window);
        u64::from_le_bytes(b)
    }

    /// A hit is one volatile store when `addr` is aligned.
    #[inline]
    fn write_u64(&self, addr: GlobalAddr, v: u64) {
        if self.view.grants(addr.0, 8, ACC_WRITE) {
            return self.view.write::<u64>(addr.0, v.to_le());
        }
        self.write(addr, &v.to_le_bytes());
    }

    fn sync(&self, op: DsmOp) {
        self.run(op, |_| {});
    }

    fn compute(&self, _: Dur) {}
}

impl Drop for Cluster<'_> {
    /// Stop the serving loop, ring and unpark, so that a loop asleep or
    /// parked sees it — also when the program unwinds, so the panic
    /// reaches the caller.
    fn drop(&mut self) {
        let mut rt = self
            .node
            .runtime
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        rt.stopped = true;
        self.view.stop();
        drop(rt);
        self.serving.unpark();
    }
}

const POISONED: &str = "a panic inside the node runtime";

/// The node's runtime under its lock, and how the serving thread waits
/// for it, which the program's thread reads without the lock.
struct Shared<'v> {
    runtime: Mutex<Runtime<'v>>,
    /// The serving thread parks until the next release, which unparks
    /// it. It publishes no data: the fences of `park` and `Cluster::run`
    /// order it against the lock.
    want: AtomicBool,
    /// The serving thread is in its full wait, which a timer set due
    /// before the wait ends must cut short. Set while that thread holds
    /// the runtime, so the lock hands it to the next holder; cleared
    /// without it, so a call that reads it stale rings once for nothing.
    full: AtomicBool,
}

impl<'v> Shared<'v> {
    fn new(runtime: Runtime<'v>) -> Self {
        Shared {
            runtime: Mutex::new(runtime),
            want: AtomicBool::new(false),
            full: AtomicBool::new(false),
        }
    }

    /// Park the serving thread until the next release, unless the
    /// runtime is free by now.
    fn park(&self) {
        self.want.store(true, Ordering::Relaxed);
        // With `Cluster::run`'s fence: the program sees `want`, or this
        // sees the runtime free.
        fence(Ordering::SeqCst);
        if self.runtime.try_lock().is_err() {
            thread::park();
        }
    }
}

/// The node's runtime: socket runtime + frame table, whose pages are
/// the view's memory. Whichever thread holds it runs it.
struct Runtime<'v> {
    rt: SocketRt<Reliable<DsmNode>>,
    frames: Arc<FrameCell>,
    view: &'v ClusterView,
    /// The program's handle is gone: the serving loop exits.
    stopped: bool,
    /// A call wrote a doorbell byte, for the next holder to take.
    rang: bool,
    /// When the serving loop's last sleep ends unless woken (`None`: never).
    wake_at: Option<SimTime>,
}

impl<'v> Runtime<'v> {
    /// Node `me`'s runtime over `view`, started; see [`run_cluster_node`].
    fn new(
        cfg: &DsmConfig,
        me: NodeId,
        sock: UdpSocket,
        peers: Vec<SocketAddr>,
        view: &'v ClusterView,
    ) -> Self {
        let mut nodes = cfg.build_nodes();
        let frames = nodes[me.index()].frames_handle();
        // Before the start installs home pages, so the view maps them.
        Self::mem(&frames).back(view.store());
        // Keep only our node; the rest live in their own processes. Its
        // timeouts are the socket's, not the simulated era's.
        let rel = loopback_rel(&cfg.model.faults);
        let node = Reliable::new(nodes.swap_remove(me.index()), cfg.nnodes, rel);
        let mut rt = SocketRt::new(node, me, sock, peers, cfg.model.clone());
        rt.wake_on(view.doorbell());
        rt.start();
        Runtime {
            rt,
            frames,
            view,
            stopped: false,
            rang: false,
            wake_at: None,
        }
    }

    /// Only the holder of the runtime touches the frame table (no leases
    /// in cluster mode), so each call site takes a fresh exclusive
    /// borrow under the same discipline as the kernel path.
    #[allow(clippy::mut_from_ref)]
    fn mem(frames: &FrameCell) -> &mut FrameTable {
        // SAFETY: see above — one holder of the runtime at a time.
        unsafe { &mut *frames.get() }
    }

    /// Take the doorbell byte a call rang: one left unread ends every
    /// wait at once, and a parked fault's byte must come next. A sleeping
    /// serving loop may not have seen it, so it still sleeps to `wake_at`.
    fn take_ring(&mut self) {
        if std::mem::take(&mut self.rang) {
            self.view.answer();
        }
    }

    /// The one op path: run `op` to its end on this thread while its
    /// program is parked in it.
    fn run(&mut self, op: DsmOp) {
        self.take_ring();
        self.rt.run_op(op, Duration::MAX);
    }

    /// Resolve a parked access as a protocol op on the byte it trapped
    /// at, give the page's view its frame's right and resume the thread.
    fn service_fault(&mut self, fault: ViewFault) {
        let addr = GlobalAddr(fault.off);
        let mut byte = [0u8];
        // Recompute the fault kind from the page's *current* right: an
        // invalidation may have landed between the trap and now, in
        // which case the store needs the page first (two-fault path).
        let op = if Self::mem(&self.frames).try_read(addr, &mut byte) {
            // A readable page holds the current value of the byte the
            // store trapped at, and the retried store overwrites it:
            // writing it back changes nothing but acquires write
            // ownership. (The page's first byte may be another node's,
            // stale by the time ownership arrives.)
            DsmOp::Write {
                addr,
                data: OpData::new(&byte),
            }
        } else {
            DsmOp::Read {
                addr,
                buf: OpBuf::new(&mut byte),
                hint: None,
            }
        };
        self.run(op);
        self.raise(addr, 1);
        self.view.finish_fault();
    }

    /// Give the view of every page of the `len` bytes at `addr` its
    /// frame's right, where the frame has one: a page write-protected
    /// for a hand-out while its frame kept write rights comes back here.
    fn raise(&self, addr: GlobalAddr, len: usize) {
        if len == 0 {
            return;
        }
        let mem = Self::mem(&self.frames);
        let g = mem.geometry();
        for page in g.page_of(addr).0..=g.page_of(addr.offset(len - 1)).0 {
            let right = mem.access(PageId(page));
            if right != Access::None {
                mem.set_access(PageId(page), right);
            }
        }
    }
}

/// The serving thread: take a call's ring, then serve a parked
/// fault, else dispatch one event, else sleep without the runtime in
/// its full wait. A fault or a ring leaves the doorbell readable until
/// taken here, so none is slept through. The runtime held, it sleeps
/// `grace`, the doorbell alone for [`GRACE`], then parks until the next
/// release, alternately (see the module docs).
///
/// A panic here fails the view, so no fault stays parked: the program
/// runs on to its next sync call, which finds the runtime poisoned. A
/// runtime the program poisoned ends the loop: that panic is the node's.
fn serve(node: &Shared<'_>, view: &ClusterView, grace: Wait) {
    let mut graced = false;
    let served = catch_unwind(AssertUnwindSafe(|| loop {
        let mut rt = match node.runtime.try_lock() {
            Ok(rt) => rt,
            Err(TryLockError::Poisoned(_)) => break,
            Err(TryLockError::WouldBlock) => {
                graced = !graced;
                if graced {
                    grace.sleep();
                } else {
                    node.park();
                }
                continue;
            }
        };
        graced = false;
        if rt.stopped {
            break;
        }
        rt.take_ring();
        if let Some(fault) = rt.view.pending_fault() {
            rt.service_fault(fault);
        } else if !(rt.rt.dispatch_due() || rt.rt.recv_one()) {
            rt.wake_at = rt.rt.next_deadline();
            let wait = rt.rt.waiter(Duration::MAX);
            node.full.store(true, Ordering::Relaxed);
            drop(rt);
            wait.sleep();
            node.full.store(false, Ordering::Relaxed);
        }
    }));
    if let Err(failure) = served {
        view.fail();
        resume_unwind(failure);
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
/// `linger` runs after `program` returns, while this node still serves
/// peers; return from it once the whole cluster is known to be done
/// (e.g. after a coordinator's shutdown message).
/// Real sockets are not deterministic — matching *results* with the
/// simulator, not matching traffic, is the contract. Returns the
/// program's result and this node's traffic: every datagram it sent,
/// under the simulator's kinds and modeled sizes.
///
/// A panic in `program` or `linger` stops this node's reactor and is
/// re-raised on the caller's thread, as is one of the serving thread
/// (say, a message too large for a datagram); then `linger` is skipped.
///
/// # Panics
///
/// At entry, with the refusal of [`supports`], if page protection
/// cannot drive `cfg.protocol`: running it anyway would return wrong
/// results silently. Likewise, naming them, if `cfg.model`'s fault plan
/// schedules crashes or partitions or has delay spikes: a real socket
/// acts out only its drops and duplicates.
pub fn run_cluster_node<V, F, L>(
    cfg: &DsmConfig,
    me: NodeId,
    sock: UdpSocket,
    peers: Vec<SocketAddr>,
    program: F,
    linger: L,
) -> (V, NetStats)
where
    V: Send,
    F: FnOnce(&ClusterDsm<'_>) -> V + Send,
    L: FnOnce(&V) + Send,
{
    assert_eq!(peers.len() as u32, cfg.nnodes, "one address per node");
    if let Err(refusal) = supports(cfg.protocol) {
        panic!("{refusal}");
    }
    let ps = cfg.layout().geometry.page_size();
    let view = ClusterView::new(cfg.layout().total_bytes() / ps, ps).expect("mmap cluster view");
    let runtime = Runtime::new(cfg, me, sock, peers, &view);
    let grace = runtime.rt.bell(GRACE);
    let node = Shared::new(runtime);

    let result = std::thread::scope(|s| {
        let (node, view) = (&node, &view);
        let serving = s.spawn(move || serve(node, view, grace));

        // Leaving this closure drops the handle, which stops the serving
        // loop — also when `program` or `linger` panics.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let dsm = Dsm::new(Cluster {
                view,
                node,
                serving: serving.thread().clone(),
                me,
                nnodes: cfg.nnodes,
            });
            let result = program(&dsm);
            // Keep serving peers until the embedder says the cluster is
            // done, then tear down — unless the serving thread failed.
            if !view.failed() {
                linger(&result);
            }
            result
        }));
        // A failed reactor is the cause of whatever the program met.
        if let Err(failure) = serving.join() {
            resume_unwind(failure);
        }
        ran.unwrap_or_else(|panic| resume_unwind(panic))
    });
    let stats = node.runtime.lock().expect(POISONED).rt.stats().clone();
    (result, stats)
}

/// What [`run_in_threads`] returns: each rank's result and its node's
/// traffic, in rank order.
#[derive(Debug)]
pub struct ThreadsRun<V> {
    pub results: Vec<V>,
    pub stats: Vec<NetStats>,
}

/// Run a whole cluster as threads of this process: one loopback UDP
/// socket and one [`run_cluster_node`] per node, each on its own
/// thread, every node running `program`. Returns the results in rank
/// order, with each node's traffic.
///
/// No program starts before every node serves, so no request waits on
/// a peer still starting up (and is resent meanwhile). Every node keeps
/// serving its peers until all programs have returned. A program that
/// panics fails the run: its node keeps
/// serving meanwhile, and once every node is done the first panic is
/// re-raised on the caller's thread with its own payload. Peers waiting
/// in a barrier the panicked program never reached are not released,
/// so such a run still hangs.
pub fn run_in_threads<V, F>(cfg: &DsmConfig, program: F) -> ThreadsRun<V>
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
    let (all_up, all_done) = (Barrier::new(socks.len()), Barrier::new(socks.len()));
    let (program, all_up, all_done) = (&program, &all_up, &all_done);
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
                        |d| {
                            all_up.wait();
                            catch_unwind(AssertUnwindSafe(|| program(d)))
                        },
                        |_| {
                            all_done.wait();
                        },
                    )
                })
            })
            .collect();
        nodes.into_iter().map(|node| node.join()).collect()
    });
    let (results, stats) = outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok((Ok(v), stats)) => (v, stats),
            Ok((Err(payload), _)) | Err(payload) => resume_unwind(payload),
        })
        .unzip();
    ThreadsRun { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreMsg;
    use dsm_net::{LOOPBACK_REL, LOSSY_LOOPBACK_REL};

    /// A one-node cluster exercises the whole fault → protocol → view
    /// pipeline in-process (multi-process tests live in the bench
    /// crate, driving the `dsm-cluster` binary).
    #[test]
    fn single_node_cluster_matches_simulator() {
        fn program(dsm: &Dsm<'_, impl Engine>) -> u64 {
            dsm.write_u64(GlobalAddr(16), 41);
            dsm.barrier(0);
            let v = dsm.read_u64(GlobalAddr(16));
            dsm.with_lock(3, |d| {
                let c = d.read_u64(GlobalAddr(8192));
                d.write_u64(GlobalAddr(8192), c + 1);
            });
            v + dsm.read_u64(GlobalAddr(8192))
        }
        let cfg = DsmConfig::new(1, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size());
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap()];
        let (cluster, _) = run_cluster_node(
            &cfg,
            NodeId(0),
            sock,
            peers,
            |d: &ClusterDsm<'_>| program(d),
            |_| {},
        );
        let sim = crate::run_dsm(&cfg, |d: &Dsm<'_>| program(d));
        assert_eq!(cluster, sim.results[0]);
        assert_eq!(cluster, 42);
    }

    /// The program's view on real pages.
    fn view<'v>(d: &'v ClusterDsm<'_>) -> &'v ClusterView {
        d.engine.view
    }

    /// Two nodes store to and load from pages only the other touched
    /// last: every access from the second round on is a miss, which
    /// the program's own thread resolves as an op, and no access traps.
    #[test]
    fn accesses_that_miss_resolve_on_the_program_thread_without_a_trap() {
        const PAGES: usize = 8;
        let ps = dsm_vm::os_page_size();
        let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
            .heap_bytes(PAGES * ps)
            .page_size(ps);
        let word = |page: usize, round: usize| (page * 100 + round) as u64 + 1;
        let run = run_in_threads(&cfg, |d| {
            let (me, view) = (d.id().0 as usize, view(d));
            let mut bar = 0;
            let mut barrier = || {
                d.barrier(bar);
                bar += 1;
            };
            for round in 0..4 {
                let mine = |p: &usize| (p + me + round) % 2 == 0;
                for page in (0..PAGES).filter(mine) {
                    if round > 0 {
                        assert!(view.access(page) < ACC_WRITE, "page {page} round {round}");
                    }
                    d.write_u64(GlobalAddr(page * ps), word(page, round));
                }
                barrier();
                for page in (0..PAGES).filter(|p| !mine(p)) {
                    assert_eq!(view.access(page), dsm_vm::cluster::ACC_NONE);
                    assert_eq!(d.read_u64(GlobalAddr(page * ps)), word(page, round));
                }
                barrier();
            }
            view.traps()
        });
        assert_eq!(run.results, [0, 0], "traps per node");
        assert!(run.stats.iter().all(|s| s.kind("WriteReq").count > 0));
    }

    /// An access the program makes through the view, unchecked, still
    /// traps and resolves through the serving thread — what a right
    /// revoked between a check and its access takes — under every
    /// page-fault-driven row: a store and a load per node, both cold.
    #[test]
    fn an_unchecked_access_resolves_through_the_serving_thread_under_every_row() {
        let ps = dsm_vm::os_page_size();
        for kind in ProtocolKind::every_that(|f| f.page_fault_driven) {
            let cfg = DsmConfig::new(2, kind).heap_bytes(4 * ps).page_size(ps);
            let run = run_in_threads(&cfg, |d| {
                let (me, view) = (d.id().0 as usize, view(d));
                view.write::<u64>((2 + me) * ps + 8, me as u64 + 7);
                d.barrier(0);
                let seen = view.read::<u64>((3 - me) * ps + 8);
                d.barrier(1);
                (seen, view.traps())
            });
            for (me, (seen, traps)) in run.results.into_iter().enumerate() {
                assert_eq!(seen, 8 - me as u64, "{kind}: rank {me} read");
                assert!(traps > 0, "{kind}: rank {me} took no trap");
            }
        }
    }

    /// Misaligned and page-straddling words, and byte ranges over
    /// several pages, on pages the accessing node does not hold: what
    /// each node reads on real pages is what it reads in the simulator,
    /// under every page-fault-driven row.
    #[test]
    fn misses_across_pages_match_the_simulator_under_every_row() {
        fn program(d: &Dsm<'_, impl Engine>) -> Vec<u64> {
            let ps = dsm_vm::os_page_size();
            let me = d.id().0 as usize;
            let bytes = |seed: usize| -> Vec<u8> {
                (0..2 * ps + 200).map(|i| (i * 7 + seed) as u8).collect()
            };
            let digest = |b: &[u8]| {
                b.iter()
                    .fold(0u64, |h, &x| h.wrapping_mul(31) ^ u64::from(x))
            };
            let mut seen = Vec::new();
            // Rank r writes in its own third of the space, then reads
            // what the other rank wrote in its third.
            for phase in 0..2 {
                let base = |r: usize| (1 + 3 * r) * ps;
                if me == phase {
                    d.write_u64(GlobalAddr(base(me) - 3), 0x0102_0304_0506_0708);
                    d.write_u64(GlobalAddr(base(me) + ps + 5), 77 + me as u64);
                    d.write_bytes(GlobalAddr(base(me) + 2 * ps - 100), &bytes(me));
                }
                d.barrier(phase as u32);
                if me != phase {
                    let b = base(phase);
                    seen.push(d.read_u64(GlobalAddr(b - 3)));
                    seen.push(d.read_u64(GlobalAddr(b - 7)));
                    seen.push(d.read_u64(GlobalAddr(b + ps + 5)));
                    seen.push(digest(
                        &d.read_bytes(GlobalAddr(b + 2 * ps - 100), 2 * ps + 200),
                    ));
                    seen.push(digest(&d.read_bytes(GlobalAddr(b - 50), 3 * ps)));
                }
            }
            d.barrier(2);
            seen
        }
        let ps = dsm_vm::os_page_size();
        for kind in ProtocolKind::every_that(|f| f.page_fault_driven) {
            let cfg = DsmConfig::new(2, kind).heap_bytes(10 * ps).page_size(ps);
            let sim = crate::run_dsm(&cfg, |d: &Dsm<'_>| program(d)).results;
            let pages = run_in_threads(&cfg, |d: &ClusterDsm<'_>| program(d)).results;
            assert_eq!(sim[0][0], 0x0102_0304_0506_0708, "{kind}");
            assert_eq!(pages, sim, "{kind}");
        }
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
        let (sum, _) = run_cluster_node(
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

    /// A node's reliable transport takes its timeouts from the socket,
    /// whatever era the cost model simulates: a first retransmission
    /// timeout of 2 ms on loopback, not the 1992 LAN's ~23 ms.
    #[test]
    fn a_node_times_out_as_its_socket_does_not_as_its_era() {
        let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
            .model(dsm_net::CostModel::lan_1992())
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size());
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap(); 2];
        let view = ClusterView::new(16, dsm_vm::os_page_size()).unwrap();
        let rt = Runtime::new(&cfg, NodeId(0), sock, peers, &view);
        let era = dsm_net::RelConfig::from_model(&cfg.model, 2);
        assert_eq!(rt.rt.node().config(), &LOOPBACK_REL);
        assert!(LOOPBACK_REL.rto_initial * 10 < era.rto_initial, "{era:?}");
    }

    /// A node whose fault plan drops datagrams recovers each loss after
    /// the short loopback RTO, not the lossless socket's floor; one that
    /// only duplicates them loses nothing, and keeps the floor.
    #[test]
    fn a_node_that_drops_datagrams_keeps_the_short_floor() {
        let base = DsmConfig::new(2, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size());
        for (plan, want) in [
            (dsm_net::FaultPlan::lossy(0.1, 0.0, 1), &LOSSY_LOOPBACK_REL),
            (dsm_net::FaultPlan::lossy(0.0, 0.1, 1), &LOOPBACK_REL),
        ] {
            let cfg = base.clone().faults(plan);
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            let peers = vec![sock.local_addr().unwrap(); 2];
            let view = ClusterView::new(16, dsm_vm::os_page_size()).unwrap();
            let rt = Runtime::new(&cfg, NodeId(0), sock, peers, &view);
            assert_eq!(rt.rt.node().config(), want);
        }
        assert!(LOSSY_LOOPBACK_REL.rto_min < LOOPBACK_REL.rto_min);
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

    /// A call that takes a ring meant for the sleeping serving loop
    /// rings again for the timer that ring was for, and a call made
    /// while the loop is not in its full wait rings for none. Node 0
    /// runs here without its serving loop, which `full` stands in for:
    /// its release grants lock 0 to node 1 and rings for the grant's
    /// retransmit timer; a local acquire then takes that byte, as it may
    /// before the sleeper sees it, and the timer — still pending, node
    /// 1's ack is unread — must ring once more, or a lost grant waits for
    /// unrelated traffic. Out of its full wait, a loop takes the timers
    /// with the runtime: a local release takes the byte and writes none.
    #[test]
    fn a_call_that_takes_a_ring_rings_again_for_pending_timers() {
        let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size());
        let socks: Vec<_> = (0..2)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<_> = socks.iter().map(|s| s.local_addr().unwrap()).collect();
        let [sock0, sock1] = <[UdpSocket; 2]>::try_from(socks).unwrap();
        // The 16 pages of the heap.
        let new_view = || ClusterView::new(16, dsm_vm::os_page_size()).unwrap();
        let view = new_view();
        let node = Shared::new(Runtime::new(&cfg, NodeId(0), sock0, peers.clone(), &view));
        let dsm = Dsm::new(Cluster {
            view: &view,
            node: &node,
            serving: thread::current(),
            me: NodeId(0),
            nnodes: 2,
        });
        let runtime = &node.runtime;
        node.full.store(true, Ordering::Relaxed);
        dsm.acquire(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let view = new_view();
                Runtime::new(&cfg, NodeId(1), sock1, peers, &view).run(DsmOp::Acquire(0));
            });
            // Take node 1's request into lock 0's queue.
            let mut rt = runtime.lock().unwrap();
            while !(rt.rt.waiter(Duration::from_secs(5)).sleep() && rt.rt.recv_one()) {}
            drop(rt);
            dsm.release(0);
            assert!(runtime.lock().unwrap().rang, "the grant's timer rang");
            dsm.acquire(2);
            assert!(runtime.lock().unwrap().rang, "and rang again");
            node.full.store(false, Ordering::Relaxed);
            dsm.release(2);
            let rt = runtime.lock().unwrap();
            assert!(
                rt.rt.next_deadline().is_some(),
                "the grant's timer is pending"
            );
            assert!(!rt.rang, "a call out of the full wait rang");
            // An unread byte would end this wait at once.
            let (bell, t) = (
                rt.rt.bell(Duration::from_millis(20)),
                std::time::Instant::now(),
            );
            bell.sleep();
            assert!(
                t.elapsed() >= Duration::from_millis(20),
                "a doorbell byte was written"
            );
        });
    }

    /// A serving thread that fails leaves no program parked in a fault,
    /// and its panic reaches the caller. Node 0's program faults on a
    /// page node 1 manages; node 1, a bare socket here, answers only
    /// with a read request for node 0's own page — a page too large for
    /// one datagram, so node 0's serving thread fails on the reply.
    #[test]
    fn a_failed_serving_thread_reaches_the_caller() {
        use dsm_net::{RelMsg, Wire};
        const PAGE: usize = 1 << 17;
        let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
            .heap_bytes(2 * PAGE)
            .page_size(PAGE);
        let (sock, peer) = (
            UdpSocket::bind("127.0.0.1:0").unwrap(),
            UdpSocket::bind("127.0.0.1:0").unwrap(),
        );
        let peers = vec![sock.local_addr().unwrap(), peer.local_addr().unwrap()];
        std::thread::scope(|s| {
            s.spawn(|| {
                // Node 0's request for page 1 means its program is parked.
                peer.recv_from(&mut [0; 256]).unwrap();
                let mut frame = 1u32.to_le_bytes().to_vec();
                RelMsg::Data {
                    seq: 1,
                    ack: 0,
                    sack: 0,
                    epoch: 0,
                    ack_epoch: 0,
                    payload: CoreMsg::Proto(dsm_proto::ProtoMsg::ReadReq { page: 0 }),
                }
                .encode(&mut frame);
                peer.send_to(&frame, peers[0]).unwrap();
            });
            let run = AssertUnwindSafe(|| {
                run_cluster_node(
                    &cfg,
                    NodeId(0),
                    sock,
                    peers.clone(),
                    |d| d.read_u64(GlobalAddr(PAGE)),
                    |_| unreachable!("a failed node does not linger"),
                )
            });
            let payload = catch_unwind(run).expect_err("the failure reaches the caller");
            let said = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(said.contains("a PageRead message of 131"), "{said}");
        });
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

    /// A fault plan a real socket cannot act out is refused at entry,
    /// naming what, not run as if lossless.
    #[test]
    fn a_crash_schedule_is_refused_naming_it() {
        let at = SimTime(1_000);
        let cfg = DsmConfig::new(1, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .page_size(dsm_vm::os_page_size())
            .faults(dsm_net::FaultPlan::lossy(0.1, 0.0, 1).with_crash(0, at, None));
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap()];
        let run =
            AssertUnwindSafe(|| run_cluster_node(&cfg, NodeId(0), sock, peers, |_| (), |_| {}));
        let payload = catch_unwind(run).expect_err("refused at entry");
        let said = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(said.contains("fault plan's crash schedule"), "{said}");
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

    /// Two fleets and a bare view with its own host thread, all live in
    /// one process at once and each taking traps: the handler finds
    /// every fault's view among the others.
    #[test]
    fn two_fleets_and_a_bare_view_share_one_process() {
        let ps = dsm_vm::os_page_size();
        // Node 0 of each fleet and the bare view's program meet here, so
        // all three are live at once, with traps on every side.
        let all_live = Barrier::new(3);
        let fleet = || {
            let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
                .heap_bytes(2 * ps)
                .page_size(ps);
            let run = run_in_threads(&cfg, |d| {
                let (me, view) = (d.id().0 as usize, view(d));
                view.write::<u64>(me * ps, me as u64 + 1);
                if me == 0 {
                    all_live.wait();
                }
                d.barrier(0);
                let sum = view.read::<u64>(0) + view.read::<u64>(ps);
                (sum, view.traps())
            });
            for (me, (sum, traps)) in run.results.into_iter().enumerate() {
                assert_eq!(sum, 3, "rank {me}");
                assert!(traps > 0, "rank {me} took no trap");
            }
        };
        let bare = ClusterView::new(2, ps).unwrap();
        let fill = vec![5u8; ps];
        std::thread::scope(|s| {
            s.spawn(fleet);
            s.spawn(fleet);
            s.spawn(|| {
                while let Some(fault) = bare.next_fault() {
                    bare.install_page(fault.page, &fill, ACC_READ);
                    bare.finish_fault();
                }
            });
            assert_eq!(bare.read::<u8>(ps), 5);
            all_live.wait();
            assert_eq!(bare.read::<u8>(0), 5);
            bare.stop();
        });
    }
}
