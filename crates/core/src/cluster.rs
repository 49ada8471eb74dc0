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
//! thread** runs the program against a [`dsm_vm::ClusterView`], and its
//! sync calls; a protection violation parks it in the view's signal
//! handler for the **serving thread**, which runs the fault's op, else
//! dispatches one event, else sleeps *without the runtime* until a
//! datagram, the next retransmit deadline or the view's doorbell
//! ([`dsm_vm::ClusterView::doorbell`]), rung for a fault, for teardown,
//! and by a call that set a timer due before the sleep ends.
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
//! way while its frame kept write rights comes back at its next fault.
//!
//! A write fault on a readable page resolves as a protocol write of
//! the trapping byte's current value (contents unchanged, ownership
//! acquired); a cold write takes the classic two-fault upgrade. Under
//! `lrc`, writers of different bytes of one page keep their bytes when
//! barriers or different locks order them: the write fault twins the
//! page and the release ships a diff.
//!
//! Supported protocols are those whose row says
//! [`crate::Facts::page_fault_driven`]: every coherence action
//! shows as a change of access rights, so page write permission *is*
//! the protocol's write grant. [`run_cluster_node`] refuses the others
//! with the reason their row gives.

use std::net::{SocketAddr, UdpSocket};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::Duration;

use crate::lease::FrameCell;
use crate::node::{DsmNode, DsmOp, OpBuf, OpData};
use crate::{DsmConfig, ProtocolKind};
use dsm_mem::{Access, FrameTable, GlobalAddr, PageId};
use dsm_net::{wrap_fleet, NodeId, Reliable, SimTime, SocketRt};
use dsm_sync::{BarrierId, LockId};
use dsm_vm::{ClusterView, ViewFault};

/// The application's handle in cluster mode: direct view memory for
/// data, the node's runtime, taken on this thread, for synchronization.
/// The data API mirrors [`crate::Dsm`] where page-transparent access allows.
pub struct ClusterDsm<'v> {
    view: &'v ClusterView,
    runtime: &'v Mutex<Runtime<'v>>,
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

    /// Run a sync op to its end on this thread, as a fault runs on the serving one.
    fn sync(&self, op: DsmOp) {
        let mut rt = self.runtime.lock().expect(POISONED);
        rt.run(op);
        // A timer due before the serving loop's sleep ends must shorten
        // it, unless a ring is unread; a datagram wakes the loop itself.
        let due = rt.rt.next_deadline();
        if !rt.rang && due.is_some_and(|at| rt.wake_at.is_none_or(|w| at < w)) {
            self.view.ring();
            rt.rang = true;
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
        let nodes = cfg.build_nodes();
        let frames = nodes[me.index()].frames_handle();
        // Before the start installs home pages, so the view maps them.
        Self::mem(&frames).back(view.store());
        // Keep only our node; the rest live in their own processes.
        let node = wrap_fleet(nodes, &cfg.model).swap_remove(me.index());
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
        let page = PageId(fault.page);
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
        // A page write-protected for a hand-out while its frame kept
        // write rights comes back here.
        let mem = Self::mem(&self.frames);
        let right = mem.access(page);
        if right != Access::None {
            mem.set_access(page, right);
        }
        self.view.finish_fault();
    }
}

/// The serving thread: take a call's ring, then serve a parked
/// fault, else dispatch one event, else sleep without the runtime. A
/// fault or a ring leaves the doorbell readable until taken here, so
/// none is slept through.
fn serve(runtime: &Mutex<Runtime<'_>>) {
    loop {
        let mut rt = runtime.lock().expect(POISONED);
        if rt.stopped {
            break;
        }
        rt.take_ring();
        if let Some(fault) = rt.view.pending_fault() {
            rt.service_fault(fault);
        } else if !(rt.rt.dispatch_due() || rt.rt.recv_one()) {
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
/// `linger` runs after `program` returns, while this node still serves
/// peers; return from it once the whole cluster is known to be done
/// (e.g. after a coordinator's shutdown message).
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
    let ps = cfg.layout().geometry.page_size();
    let view = ClusterView::new(cfg.layout().total_bytes() / ps, ps).expect("mmap cluster view");
    let runtime = Mutex::new(Runtime::new(cfg, me, sock, peers, &view));

    std::thread::scope(|s| {
        let runtime = &runtime;
        s.spawn(move || serve(runtime));

        // Leaving this closure drops the handle, which stops the serving
        // loop — also when `program` or `linger` panics, so the scope can
        // join and re-raise the panic on the caller's thread.
        let dsm = ClusterDsm {
            view: &view,
            runtime,
            me,
            nnodes: cfg.nnodes,
        };
        let result = program(&dsm);
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

    /// A call that takes a ring meant for the sleeping serving loop
    /// rings again for the timer that ring was for. Node 0 runs here
    /// without its serving loop: its release grants lock 0 to node 1 and
    /// rings for the grant's retransmit timer; a local acquire then takes
    /// that byte, as it may before the sleeper sees it, and the timer —
    /// still pending, node 1's ack is unread — must ring once more, or a
    /// lost grant waits for unrelated traffic.
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
        let runtime = Mutex::new(Runtime::new(&cfg, NodeId(0), sock0, peers.clone(), &view));
        let dsm = ClusterDsm {
            view: &view,
            runtime: &runtime,
            me: NodeId(0),
            nnodes: 2,
        };
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
