//! Real cluster mode: one OS process per node, the `dsm-vm`
//! `mprotect`/`SIGSEGV` view as the application's memory, and the same
//! [`DsmNode`] protocol stack the simulator runs — but driven by the
//! socket reactor over localhost UDP, wrapped in the reliable
//! transport ([`dsm_net::Reliable`]) because real datagrams drop.
//!
//! # Architecture
//!
//! Two threads per node:
//!
//! * the **application thread** runs the user program against a
//!   [`dsm_vm::ClusterView`] — plain loads and stores, with protection
//!   violations parking the thread in the view's signal handler;
//! * the **reactor thread** owns the [`SocketRt`] (UDP socket, timers,
//!   retransmission) and the node's frame table, dispatches incoming
//!   protocol messages, and runs ops to completion. Its loop takes
//!   one request from the application — the view's parked fault
//!   ([`dsm_vm::ClusterView::pending_fault`]: it becomes a protocol
//!   op, resolved and resumed right here) or else a synchronization
//!   request — and then serves the socket for a fixed interval before
//!   it looks again, so that when a request is seen does not depend on
//!   what else happens to arrive.
//!
//! A node is usually alone in its process, but nothing requires it:
//! views are independent, so tests run whole clusters as threads.
//!
//! # View ↔ frame reconciliation
//!
//! The protocol operates on the node's frame table; the application
//! operates on the mmap view. The reactor reconciles the two at every
//! dispatch boundary:
//!
//! * **out** (before any op): pages writable in the view are copied
//!   into their frames, so releases/barriers flush and peers are
//!   served the application's bytes;
//! * **in** (after any event): each page's view protection is aligned
//!   with its frame access — invalidations revoke the mapping, fetches
//!   install contents, upgrades and downgrades adjust rights.
//!
//! A write fault on a readable page resolves as a protocol write of
//! the page's current bytes (contents unchanged, ownership acquired);
//! a cold write takes the classic two-fault upgrade. This is correct
//! for data-race-free programs at page granularity — like the real
//! page-based systems this reproduces, concurrent false-sharing
//! writers under distinct locks are not supported in cluster mode
//! (the simulator's byte-accurate engine handles them fine).
//!
//! Supported protocols are those whose row says
//! [`crate::Facts::page_fault_driven`]: every coherence action
//! shows as a change of access rights, so page write permission *is*
//! the protocol's write grant. [`run_cluster_node`] refuses the others
//! with the reason their row gives.

use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::lease::FrameCell;
use crate::node::{DsmNode, DsmOp, OpBuf, OpData};
use crate::{DsmConfig, ProtocolKind};
use dsm_mem::{Access, FrameTable, GlobalAddr, PageId, SpaceLayout};
use dsm_net::{wrap_fleet, NodeId, Reliable, SocketRt};
use dsm_sync::{BarrierId, LockId};
use dsm_vm::cluster::{ACC_NONE, ACC_READ, ACC_WRITE};
use dsm_vm::{ClusterView, ViewFault};

/// How long one reactor poll waits for a datagram before re-checking
/// the application, and how long the reactor serves the network
/// between two looks at the application. Small enough to keep op
/// latency negligible on localhost, large enough not to spin. (A quiet
/// socket wait lasts as long as the kernel rounds `SO_RCVTIMEO` up to —
/// two scheduler ticks, 8 ms at HZ = 250 — however short this is.)
const POLL: Duration = Duration::from_micros(500);

/// How long a resumed access needs to trap again, if it is going to: a
/// wake-up across CPUs and a signal delivery, tens of microseconds.
/// Short next to [`POLL`].
const RETRAP: Duration = Duration::from_micros(100);

/// A synchronization request (an acquire, release or barrier op)
/// crossing from the application thread into the reactor, and where to
/// acknowledge it. The application thread is either running, parked in
/// a fault (which the reactor reads off the view, not off this
/// channel), or blocked in a sync op — never two at once. The channel
/// closing is the reactor's signal to exit.
struct Req(DsmOp, mpsc::Sender<()>);

/// The application's handle in cluster mode: direct view memory for
/// data, channel-to-reactor for synchronization. The data API mirrors
/// [`crate::Dsm`] where page-transparent access allows.
pub struct ClusterDsm<'v> {
    view: &'v ClusterView,
    req: mpsc::Sender<Req>,
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

    fn op(&self, op: DsmOp) {
        let (tx, rx) = mpsc::channel();
        self.req.send(Req(op, tx)).expect("reactor gone");
        rx.recv().expect("reactor gone");
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

    pub fn read_bytes(&self, addr: GlobalAddr, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.view.read::<u8>(addr.0 + i)).collect()
    }

    pub fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.view.write::<u8>(addr.0 + i, *b);
        }
    }

    pub fn acquire(&self, lock: LockId) {
        self.op(DsmOp::Acquire(lock));
    }

    pub fn release(&self, lock: LockId) {
        self.op(DsmOp::Release(lock));
    }

    pub fn with_lock<T>(&self, lock: LockId, f: impl FnOnce(&Self) -> T) -> T {
        self.acquire(lock);
        let out = f(self);
        self.release(lock);
        out
    }

    pub fn barrier(&self, id: BarrierId) {
        self.op(DsmOp::Barrier(id));
    }
}

/// The reactor: socket runtime + frame table + view, reconciled at
/// every dispatch boundary.
struct Reactor<'v> {
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
}

impl Reactor<'_> {
    /// The reactor thread is the only frame-table toucher in cluster
    /// mode (no leases), so each call site takes a fresh exclusive
    /// borrow under the same discipline as the kernel path.
    #[allow(clippy::mut_from_ref)]
    fn mem(frames: &FrameCell) -> &mut FrameTable {
        // SAFETY: see above — single-threaded access from the reactor.
        unsafe { &mut *frames.get() }
    }

    fn frame_level(&self, page: usize) -> u8 {
        match Self::mem(&self.frames).access(PageId(page)) {
            Access::None => ACC_NONE,
            Access::Read => ACC_READ,
            Access::Write => ACC_WRITE,
        }
    }

    /// View → frames: publish the application's bytes on every page it
    /// holds write rights to, so flushes, diffs, and serves see them.
    fn reconcile_out(&mut self, buf: &mut Vec<u8>) {
        let ps = self.layout.geometry.page_size();
        buf.resize(ps, 0);
        for page in 0..self.view.pages() {
            if self.view.access(page) == ACC_WRITE {
                self.view.snapshot_page(page, buf);
                let ok = Self::mem(&self.frames).try_write(GlobalAddr(page * ps), buf);
                // A frame downgraded since the grant refuses the copy;
                // the view keeps the bytes and they flow out with the
                // next write-fault payload instead.
                let _ = ok;
            }
        }
    }

    /// Frames → view: align every page's mapping with its frame access.
    fn reconcile_in(&mut self) {
        for page in 0..self.view.pages() {
            let fa = self.frame_level(page);
            let va = self.view.access(page);
            if fa == va {
                continue;
            }
            if fa == ACC_NONE {
                // Invalidated under the application's feet — legal for
                // DRF programs (it cannot be touching the page now).
                self.view.set_access(page, ACC_NONE);
            } else if va == ACC_NONE || fa == ACC_WRITE {
                // Fresh install or upgrade: the frame holds the truth
                // (fetched page, or our bytes merged with remote
                // diffs), and the application is parked in the op that
                // caused this.
                let bytes = Self::mem(&self.frames)
                    .page_bytes(PageId(page))
                    .expect("readable frame has bytes")
                    .to_vec();
                self.view.install_page(page, &bytes, fa);
            } else {
                // Write → read downgrade: keep the view bytes (already
                // reconciled out), just drop the right.
                self.view.set_access(page, ACC_READ);
            }
        }
    }

    fn run_op(&mut self, op: DsmOp) {
        self.rt.run_op(op, POLL)
    }

    /// Resolve a parked access as a protocol op and resume its thread.
    fn service_fault(&mut self, fault: ViewFault, buf: &mut Vec<u8>) {
        self.reconcile_out(buf);
        let ps = self.layout.geometry.page_size();
        let addr = GlobalAddr(fault.page * ps);
        // Recompute the fault kind from the *current* view level: an
        // invalidation may have landed between the trap and now, in
        // which case the store needs the page first (two-fault path).
        if self.view.access(fault.page) == ACC_NONE {
            buf.resize(ps, 0);
            let op = DsmOp::Read {
                addr,
                buf: OpBuf::new(buf),
                hint: None,
            };
            self.run_op(op);
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
            self.run_op(op);
        }
        self.reconcile_in();
        self.view.finish_fault();
    }

    fn service_sync(&mut self, op: DsmOp, buf: &mut Vec<u8>) {
        self.reconcile_out(buf);
        let acquire_like = !matches!(op, DsmOp::Release(_));
        self.run_op(op);
        self.reconcile_in();
        if self.lazy && acquire_like {
            // See the `lazy` field: frame access cannot express "bytes
            // stale behind an unchanged grant", so make the application
            // re-fault everything it touches after the sync point.
            for page in 0..self.view.pages() {
                if self.view.access(page) != ACC_NONE {
                    self.view.set_access(page, ACC_NONE);
                }
            }
        }
    }

    /// Serve peers (and retransmission timers) for a whole [`POLL`], and
    /// on until the socket wait then in progress ends.
    fn serve_peers(&mut self) {
        let until = Instant::now() + POLL;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            if self.rt.step(left) {
                self.reconcile_in();
            }
        }
    }

    /// The loop: one look at the application, then the network for a
    /// whole [`POLL`], whatever arrives meanwhile. A datagram must not
    /// bring the next look forward: what an op leaves behind on the
    /// wire (acks, confirmations) lands within microseconds of the
    /// application's next request, so which of the two came first would
    /// decide whether that request is seen at once or a socket wait
    /// later — 0.2 ms or 8 ms a fault, by luck, and runs of one program
    /// 15 % apart. A request waits for the look it precedes, every time.
    fn run(mut self, rx: mpsc::Receiver<Req>) {
        let mut buf = Vec::new();
        loop {
            if let Some(fault) = self.view.pending_fault() {
                self.service_fault(fault, &mut buf);
                // The access just resumed may trap again at once: a
                // store to a page this node does not hold is a read
                // fault and then an upgrade (module docs), and a scan's
                // next page is as near. Look once more before going
                // back to the socket, or that trap waits out the wait.
                // Once: an access traps twice at most, and a loop here
                // would be a busy poll.
                std::thread::sleep(RETRAP);
                if let Some(again) = self.view.pending_fault() {
                    self.service_fault(again, &mut buf);
                }
            } else {
                match rx.try_recv() {
                    // The program returned (after `linger`) or unwound.
                    Err(mpsc::TryRecvError::Disconnected) => break,
                    Ok(Req(op, ack)) => {
                        self.service_sync(op, &mut buf);
                        let _ = ack.send(());
                    }
                    Err(mpsc::TryRecvError::Empty) => {}
                }
            }
            self.serve_peers();
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
/// `linger` runs after `program` returns, while this node still
/// serves peer requests; return from it once the whole cluster is
/// known to be done (e.g. after a coordinator's shutdown message).
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

    let mut rt = SocketRt::new(node, me, sock, peers, cfg.model.clone());
    rt.start();

    let view = ClusterView::new(pages, ps).expect("mmap cluster view");
    let (tx, rx) = mpsc::channel::<Req>();

    std::thread::scope(|s| {
        let reactor = Reactor {
            rt,
            frames,
            view: &view,
            layout,
            lazy: cfg.protocol.facts().lazy,
        };
        s.spawn(move || reactor.run(rx));

        // The only sender: leaving this closure drops it, which stops
        // the reactor — also when `program` or `linger` panics, so the
        // scope can join and re-raise the panic on the caller's thread.
        let dsm = ClusterDsm {
            view: &view,
            req: tx,
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

    /// A whole cluster as threads of this process: every node has its
    /// own socket, view and reactor, and keeps serving peers until all
    /// programs are done.
    fn run_in_process(n: u32, proto: ProtocolKind) {
        let page = dsm_vm::os_page_size();
        let cfg = DsmConfig::new(n, proto)
            .heap_bytes((n as usize + 1) * page)
            .page_size(page);
        let socks: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<SocketAddr> = socks.iter().map(|s| s.local_addr().unwrap()).collect();
        let all_done = std::sync::Barrier::new(n as usize);
        let results: Vec<u64> = std::thread::scope(|s| {
            let ranks: Vec<_> = socks
                .into_iter()
                .enumerate()
                .map(|(rank, sock)| {
                    let (cfg, peers, all_done) = (&cfg, peers.clone(), &all_done);
                    s.spawn(move || {
                        run_cluster_node(
                            cfg,
                            NodeId(rank as u32),
                            sock,
                            peers,
                            |d| demo(d, page),
                            |_| {
                                all_done.wait();
                            },
                        )
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        // Slot sum of `(i+1)*10`, scaled, plus three lock-guarded
        // rounds of `+ (i+1)` from each node.
        let tri = (n as u64) * (n as u64 + 1) / 2;
        assert_eq!(results, vec![10 * tri * 1000 + 3 * tri; n as usize]);
    }

    #[test]
    fn ivy_fixed_clusters_run_as_threads() {
        run_in_process(2, ProtocolKind::IvyFixed);
        run_in_process(4, ProtocolKind::IvyFixed);
    }

    #[test]
    fn ivy_dynamic_clusters_run_as_threads() {
        run_in_process(2, ProtocolKind::IvyDynamic);
        run_in_process(4, ProtocolKind::IvyDynamic);
    }

    /// Home-based write-invalidate is page-fault driven whoever serves
    /// the reads: over UDP the one-sided doorbells take the software
    /// path, as on any fabric without one-sided support.
    #[test]
    fn rdma_clusters_run_as_threads() {
        run_in_process(2, ProtocolKind::Rdma);
        run_in_process(4, ProtocolKind::Rdma);
    }

    #[test]
    fn lrc_cluster_runs_as_threads() {
        run_in_process(3, ProtocolKind::Lrc);
    }
}
