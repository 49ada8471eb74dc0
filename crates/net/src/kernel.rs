//! The discrete-event kernel.
//!
//! All protocol state belongs to the kernel: a node's message handlers
//! ([`NodeBehavior::on_message`]) and its application-op entry point
//! ([`NodeBehavior::on_op`]) are invoked by the event loop, at
//! well-defined points in virtual time, one at a time. Application
//! *programs* run as coroutines on the caller's thread, cooperatively
//! scheduled by the driver (see [`crate::driver`]): the loop state is
//! one owned value that passes from program to program, and only the
//! one holding it runs — the event loop or its own code — so exactly
//! one logical actor is ever running.
//!
//! The kernel processes events inside a *virtual-time window*
//! `[heap_min, heap_min + lookahead)` the driver computes from the
//! minimum network delay of the cost model. Messages — self sends
//! included — are never inserted into the heap at send time; they are
//! staged as [`InTransit`] records and admitted at the next window
//! boundary in a canonical order (wire-arrival time, then sender, then
//! per-sender sequence), with receiver-side serialization (`recv_free`)
//! applied during admission. The admitted batch per window and its
//! order are functions of virtual time only, and that is what a
//! delivery time means here (DESIGN.md, "Windowed admission").
//!
//! Handlers talk to the world through [`Ctx`], which is backed by a
//! [`Transport`] — normally the kernel itself, but a transport adapter
//! (see [`crate::reliable`]) can interpose to translate sends, which is
//! how a wrapped behavior runs unchanged over a lossy network (and how
//! the same stack runs over real UDP sockets, see [`crate::rt`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::model::{CostModel, FaultPlan};
use crate::msg::{NodeId, Payload};
use crate::rng::XorShift64;
use crate::stats::{KindId, NetStats};
use crate::time::{Dur, SimTime};
use crate::transport::{Ctx, Transport};

/// Crash/partition lifecycle notification delivered to a
/// [`NodeBehavior`] via [`NodeBehavior::on_fault`]. `Crashed` and
/// `Recovered` concern the node itself; `PeerDown`/`PeerUp` are
/// asynchronous notices (delivered one network delay after the fact)
/// that another node's fate changed — the simulator's stand-in for a
/// perfect failure detector, complementing the timeout-driven suspect
/// lists of the reliable transport (which partitions exercise, since
/// they generate no notices at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNotice {
    /// This node crashed: its volatile state is gone. The behavior must
    /// discard protocol state; the kernel discards the node's pending
    /// deliveries and timers for as long as it stays down.
    Crashed,
    /// This node restarted after a crash; rebuild from scratch.
    Recovered,
    /// Another node crashed. `permanent` is true when no recovery is
    /// scheduled — the failure-detector oracle distinguishing a dead
    /// peer (exclude it) from a rebooting one (wait for it).
    PeerDown { peer: NodeId, permanent: bool },
    /// A crashed node recovered.
    PeerUp(NodeId),
}

/// Internal form of a scheduled fault transition (carried by
/// [`Event::Fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultChange {
    SelfCrash { permanent: bool },
    SelfRecover,
    PeerDown { peer: NodeId, permanent: bool },
    PeerUp(NodeId),
}

/// Per-node protocol logic: a state machine driven by messages from
/// other nodes and by synchronous operations from the local application
/// program.
pub trait NodeBehavior: Send {
    /// Wire message type exchanged between nodes.
    type Msg: Payload;
    /// Operation request submitted by the local application program
    /// (e.g. "read fault on page 7", "acquire lock 3").
    type Op: Send;
    /// Reply returned to the application program when an op completes.
    type Reply: Send;

    /// Called once at virtual time zero, before any program runs.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}

    /// One-line state description for deadlock diagnostics.
    fn describe(&self) -> String {
        String::new()
    }

    /// End-of-run metric gauges (name → value), collected into
    /// [`crate::RunResult::gauges`]. Used by experiments to read
    /// internal protocol state (e.g. resident metadata bytes) that
    /// never crosses the wire.
    fn gauges(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// A message from `from` has been delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg);

    /// A one-sided (NIC-level) message landed at this node: the
    /// initiator used [`Ctx::send_one_sided`] and the model supports
    /// one-sided operations, so the kernel charged no `recv_overhead`
    /// and no app/protocol-thread time here — only NIC occupancy. The
    /// hook must mutate state and reply (via `send_one_sided`) without
    /// modeling any local CPU cost; that is the contract that makes it
    /// "the NIC serviced this". Behaviors that never initiate
    /// one-sided ops can ignore it: on fabrics without one-sided
    /// support such sends are downgraded to ordinary messages and this
    /// hook is never invoked.
    fn on_nic(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Self::Msg) {
        panic!("behavior received a NIC-level delivery it does not implement");
    }

    /// The local program issued `op`. Return [`OpOutcome::Blocked`] to
    /// park the program; a later handler must call
    /// [`Ctx::complete_op`] to resume it.
    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, op: Self::Op) -> OpOutcome<Self::Reply>;

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _token: u64) {}

    /// A scheduled fault transition concerning this node fired (see
    /// [`FaultNotice`]). For `Crashed` the kernel has already marked the
    /// node down: deliveries, timers and program resumes addressed to it
    /// will be discarded until recovery, so the hook must only shed
    /// state, not communicate. For `Recovered` the node is live again
    /// and may send.
    fn on_fault(&mut self, _ctx: &mut Ctx<'_, Self>, _notice: FaultNotice) {}

    /// Reply used to complete a parked op when this node crashes
    /// *permanently* (no recovery scheduled): the program is resumed as
    /// a zombie that runs out of script at the crash instant instead of
    /// wedging the whole run on a node that will never answer. Behaviors
    /// that support crash schedules must return `Some`; the default
    /// `None` makes a permanent crash on an unsupporting behavior a
    /// loud error.
    fn crashed_reply(&self) -> Option<Self::Reply> {
        None
    }
}

/// Result of submitting an application op to the local protocol.
#[derive(Debug)]
pub enum OpOutcome<R> {
    /// Completed locally with no virtual-time cost (e.g. cache hit).
    Done(R),
    /// Completed locally after the given local processing time.
    DoneAfter(R, Dur),
    /// The op needs remote communication; the program is parked until
    /// [`Ctx::complete_op`] is called for this node.
    Blocked,
}

pub(crate) enum Event<M> {
    Deliver {
        src: NodeId,
        dst: NodeId,
        msg: M,
        /// True for one-sided deliveries: dispatch goes to
        /// [`NodeBehavior::on_nic`] instead of `on_message`.
        nic: bool,
    },
    Resume {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Fault {
        node: NodeId,
        change: FaultChange,
    },
}

impl<M> Event<M> {
    /// The node an event runs on.
    fn node(&self) -> NodeId {
        match self {
            Event::Deliver { dst, .. } => *dst,
            Event::Resume { node } => *node,
            Event::Timer { node, .. } => *node,
            Event::Fault { node, .. } => *node,
        }
    }
}

/// Upper bound on how far one program may run ahead of the kernel
/// clock inside a single [`crate::driver::Go`] grant, even when the
/// event queue is empty. Keeps the `max_events` livelock guard
/// meaningful and bounds how long a spinning program can go without
/// seeing newly delivered invalidations. Virtual-time results do not
/// depend on it; docs/PERF.md has the wall-clock sweep that chose 1 ms.
const MAX_LOCAL_QUANTUM: Dur = Dur::millis(1);

/// A message between send and admission: staged during a window and
/// admitted at the next boundary. `arrive` is the wire arrival at the
/// destination (receiver-side serialization and `recv_overhead` are
/// applied canonically during admission); `(arrive, src, seq)` is the
/// canonical admission sort key, with `seq` a per-sender sequence
/// number, so the admission order is a pure function of virtual time.
struct InTransit<M> {
    arrive: SimTime,
    src: NodeId,
    seq: u64,
    dst: NodeId,
    msg: M,
    /// One-sided delivery: admission skips `recv_overhead` and the
    /// receive path, serializing on the target's NIC instead.
    nic: bool,
}

/// What the event heap orders: 24 bytes, whatever the message type.
/// `(time, node, seq)` is unique, so `slot` — where the event waits in
/// [`Kernel::slab`] — never decides an order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    time: SimTime,
    /// Id of the node the event runs on: the first tiebreak.
    node: u32,
    /// Per-node schedule sequence: the second tiebreak.
    seq: u64,
    slot: u32,
}

/// What the kernel knows about one node's parked program.
pub(crate) struct AppSlot<R> {
    /// Program is parked waiting for `complete_op`.
    pub blocked: bool,
    /// An `on_op` call for this node is currently on the stack
    /// (completion during dispatch is then legal).
    pub in_op: bool,
    /// Completed reply waiting for the Resume event to fire.
    pub pending_reply: Option<R>,
    /// Program has returned.
    pub finished: bool,
    /// Virtual time at which the program returned.
    pub finish_time: SimTime,
}

impl<R> Default for AppSlot<R> {
    fn default() -> Self {
        AppSlot {
            blocked: false,
            in_op: false,
            pending_reply: None,
            finished: false,
            finish_time: SimTime::ZERO,
        }
    }
}

// The transport surface handlers reach through `Ctx` lives in
// `crate::transport` — the kernel is just one implementation of it
// (see `impl Transport for Kernel` below).

/// The kernel: event heap, clock, traffic stats, NIC / receive-path
/// occupancy per node, and the per-link PRNG streams for jitter and
/// fault injection. Per-node vectors are indexed by node id.
pub struct Kernel<N: NodeBehavior + ?Sized> {
    heap: BinaryHeap<Reverse<HeapKey>>,
    /// The scheduled events themselves, at the `slot` of their key: an
    /// event moves in at `schedule` and out at `pop_in_window`, and the
    /// heap sifts keys only. `free` lists the empty slots, so the slab
    /// is as long as the most events ever outstanding at once.
    slab: Vec<Option<Event<N::Msg>>>,
    free: Vec<u32>,
    /// Per-node schedule sequence counters (heap tiebreak).
    next_seq: Vec<u64>,
    /// Per-node send sequence counters (admission tiebreak).
    send_seq: Vec<u64>,
    now: SimTime,
    /// End of the current processing window: events strictly before it
    /// may run; everything else waits for the next boundary.
    window_end: SimTime,
    pub(crate) stats: NetStats,
    model: CostModel,
    /// Per-link jitter PRNG streams (`src * nnodes + dst`), empty when
    /// jitter is off. Per-link (not global) so that the draws on one
    /// link depend on that link's traffic alone.
    jitter_rng: Vec<XorShift64>,
    /// Per-link fault-injection PRNG streams, independent of the jitter
    /// streams so a fault plan never perturbs jitter decisions (and
    /// vice versa). Empty when the fault plan is disabled.
    faults_rng: Vec<XorShift64>,
    /// Precomputed 53-bit thresholds for the fault draws.
    drop_thr: u64,
    dup_thr: u64,
    spike_thr: u64,
    faults_on: bool,
    jitter_on: bool,
    /// Per-node crash state: `down[n]` while a node's volatile state
    /// is gone (deliveries/timers discarded), `dead[n]` when the
    /// crash is permanent (the program zombies out instead of waiting
    /// for a recovery that will never come).
    down: Vec<bool>,
    dead: Vec<bool>,
    /// A Resume event addressed to a down node was discarded; exactly
    /// one replacement must be scheduled at recovery so the parked
    /// program regains the floor.
    resume_dropped: Vec<bool>,
    pub(crate) app: Vec<AppSlot<N::Reply>>,
    nnodes: u32,
    /// Events popped so far; checked against `max_events` per pop, so
    /// a zero-delay spin inside one window cannot outrun the backstop.
    pub(crate) events: u64,
    /// Cap on `events`; the driver treats exceeding it as a protocol
    /// livelock and panics with a diagnostic dump.
    pub(crate) max_events: u64,
    /// Per-node time at which the send path (CPU + NIC tx) frees up.
    /// Serializes outgoing messages so a manager broadcasting to N
    /// nodes pays N transmission times — the bottleneck the
    /// centralized-vs-distributed experiments measure.
    nic_free: Vec<SimTime>,
    /// Per-node receive-path occupancy, serializing inbound handling.
    /// Advanced only during canonical admission, never at send time.
    recv_free: Vec<SimTime>,
    /// Per-node one-sided service occupancy: the target NIC's DMA
    /// engine serializes inbound one-sided ops without touching the
    /// node's receive path. Advanced only during canonical admission,
    /// like `recv_free`.
    nic_svc_free: Vec<SimTime>,
    /// Mirror of the event heap restricted to events that run *on* a
    /// given node (Deliver/Timer/Fault), as a per-node min-heap of
    /// times. Supports O(log n) computation of the run-ahead budget
    /// handed to application programs (see [`Kernel::local_budget`]).
    direct_min: Vec<BinaryHeap<Reverse<SimTime>>>,
    /// `Go` grants performed so far: the rendezvous count in run
    /// results.
    pub(crate) rendezvous: u64,
    /// Messages staged during the current window, admitted at its
    /// boundary ([`Kernel::admit_staged`]).
    staged: Vec<InTransit<N::Msg>>,
}

/// Stream seed for the (src, dst) link PRNGs: the base seed (jitter or
/// fault plan) mixed with the link id through a splitmix64 finalizer,
/// so neighboring links get uncorrelated streams and different base
/// seeds give different timelines on every link.
fn link_seed(base: u64, src: u32, dst: u32) -> u64 {
    let link = ((src as u64) << 32) | dst as u64;
    let mut z = base ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<N: NodeBehavior + ?Sized> Kernel<N> {
    pub(crate) fn new(nnodes: u32, model: CostModel) -> Self {
        assert!(nnodes > 0, "need at least one node");
        let n = nnodes as usize;
        let drop_thr = FaultPlan::threshold(model.faults.drop_prob);
        let dup_thr = FaultPlan::threshold(model.faults.dup_prob);
        let spike_thr = if model.faults.spike_max > Dur::ZERO {
            FaultPlan::threshold(model.faults.spike_prob)
        } else {
            0
        };
        // Only *randomized* faults (drop/dup/spike) allocate PRNG
        // streams: a plan carrying nothing but crash/partition
        // schedules draws zero randomness, so adding a schedule can
        // never perturb the PRNG sequence of an existing lossy run.
        let faults_on = model.faults.randomized();
        let jitter_on = model.jitter_max > Dur::ZERO;
        let link_streams = |on: bool, base: u64| -> Vec<XorShift64> {
            let links = (0..nnodes).flat_map(|s| (0..nnodes).map(move |d| (s, d)));
            if on {
                links
                    .map(|(s, d)| XorShift64::new(link_seed(base, s, d)))
                    .collect()
            } else {
                Vec::new()
            }
        };
        let jitter_rng = link_streams(jitter_on, model.jitter_seed);
        let faults_rng = link_streams(faults_on, model.faults.seed);
        let mut kernel = Kernel {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: vec![0; n],
            send_seq: vec![0; n],
            now: SimTime::ZERO,
            window_end: SimTime::ZERO,
            stats: NetStats::new(),
            model,
            jitter_rng,
            faults_rng,
            drop_thr,
            dup_thr,
            spike_thr,
            faults_on,
            jitter_on,
            down: vec![false; n],
            dead: vec![false; n],
            resume_dropped: vec![false; n],
            app: (0..n).map(|_| AppSlot::default()).collect(),
            nnodes,
            events: 0,
            max_events: u64::MAX,
            nic_free: vec![SimTime::ZERO; n],
            recv_free: vec![SimTime::ZERO; n],
            nic_svc_free: vec![SimTime::ZERO; n],
            direct_min: (0..n).map(|_| BinaryHeap::new()).collect(),
            rendezvous: 0,
            staged: Vec::new(),
        };
        // Pre-schedule the crash/recovery timeline. The schedule is
        // explicit time-keyed data — no randomness — and the per-node
        // scheduling order (crash-list order) is a pure function of the
        // plan. The crashing node learns of its own transition at
        // the instant it happens; every other node gets a PeerDown /
        // PeerUp notice one minimum network delay later (the earliest a
        // perfect failure detector could know).
        let notice_delay = kernel.model.min_net_delay();
        let crashes = kernel.model.faults.crashes.clone();
        for c in &crashes {
            assert!(
                c.node < nnodes,
                "crash schedule names node {} but the run has {} nodes",
                c.node,
                nnodes
            );
            for n in 0..nnodes {
                let node = NodeId(n);
                if n == c.node {
                    kernel.schedule(
                        c.at,
                        Event::Fault {
                            node,
                            change: FaultChange::SelfCrash {
                                permanent: c.recover.is_none(),
                            },
                        },
                    );
                    if let Some(r) = c.recover {
                        kernel.schedule(
                            r,
                            Event::Fault {
                                node,
                                change: FaultChange::SelfRecover,
                            },
                        );
                    }
                } else {
                    kernel.schedule(
                        c.at + notice_delay,
                        Event::Fault {
                            node,
                            change: FaultChange::PeerDown {
                                peer: NodeId(c.node),
                                permanent: c.recover.is_none(),
                            },
                        },
                    );
                    if let Some(r) = c.recover {
                        kernel.schedule(
                            r + notice_delay,
                            Event::Fault {
                                node,
                                change: FaultChange::PeerUp(NodeId(c.node)),
                            },
                        );
                    }
                }
            }
        }
        kernel
    }

    /// True once more events than the configured cap have been popped.
    pub(crate) fn over_event_budget(&self) -> bool {
        self.events > self.max_events
    }

    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Earliest pending event, if any.
    pub(crate) fn heap_min(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(key)| key.time)
    }

    /// One-line description of the next event in the heap, for the
    /// progress watchdog's diagnostic dump.
    pub(crate) fn peek_summary(&self) -> Option<String> {
        self.heap.peek().map(|Reverse(key)| {
            let event = self.slab[key.slot as usize].as_ref();
            let what = match event.expect("a key in the heap has its event in the slab") {
                Event::Deliver {
                    src,
                    dst,
                    nic: false,
                    ..
                } => format!("Deliver {src}→{dst}"),
                Event::Deliver {
                    src,
                    dst,
                    nic: true,
                    ..
                } => format!("NicDeliver {src}→{dst}"),
                Event::Resume { node } => format!("Resume {node}"),
                Event::Timer { node, token } => format!("Timer {node} token={token:#x}"),
                Event::Fault { node, change } => format!("Fault {node} {change:?}"),
            };
            format!("{what} at t={}", key.time)
        })
    }

    /// Short state tag for one node's program, for diagnostics.
    pub(crate) fn app_state(&self, node: usize) -> &'static str {
        let s = &self.app[node];
        if self.down[node] {
            "down"
        } else if s.finished {
            "finished"
        } else if s.pending_reply.is_some() {
            "resuming"
        } else if s.blocked {
            "blocked"
        } else {
            "running"
        }
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: Event<N::Msg>) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let node = event.node();
        let l = node.index();
        match &event {
            // Fault events join the direct-event mirror so the lease
            // budget handed to a program can never run past its own
            // crash instant.
            Event::Deliver { .. } | Event::Timer { .. } | Event::Fault { .. } => {
                self.direct_min[l].push(Reverse(at))
            }
            Event::Resume { .. } => {}
        }
        let seq = self.next_seq[l];
        self.next_seq[l] += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 events outstanding")
        });
        self.slab[slot as usize] = Some(event);
        self.heap.push(Reverse(HeapKey {
            time: at,
            node: node.0,
            seq,
            slot,
        }));
    }

    /// Advance the processing window to end at `w`.
    pub(crate) fn set_window_end(&mut self, w: SimTime) {
        debug_assert!(w >= self.window_end, "windows only move forward");
        self.window_end = w;
    }

    /// Pop the next event if it falls inside the current window.
    pub(crate) fn pop_in_window(&mut self) -> Option<(SimTime, Event<N::Msg>)> {
        if self.heap.peek()?.0.time >= self.window_end {
            return None;
        }
        let Reverse(key) = self.heap.pop().expect("peeked above");
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a key in the heap has its event in the slab");
        self.free.push(key.slot);
        self.events += 1;
        match &event {
            Event::Deliver { .. } | Event::Timer { .. } | Event::Fault { .. } => {
                let popped = self.direct_min[key.node as usize].pop();
                debug_assert_eq!(popped, Some(Reverse(key.time)));
            }
            Event::Resume { .. } => {}
        }
        self.now = key.time;
        Some((key.time, event))
    }

    /// Admit the messages staged during the window that just ended and
    /// return how many there were (the window widener's traffic
    /// signal): sort by the canonical key, apply receiver-side (or, for
    /// one-sided ops, NIC-side) serialization, and schedule the Deliver
    /// events.
    ///
    /// `floor` is the end of that window *when it was adaptively
    /// widened* (else `SimTime::ZERO`, a no-op): nodes may already have
    /// run up to the widened window's end, so arrivals inside it are
    /// pushed to the boundary — extra queueing delay, which every
    /// delivery bound already tolerates. With an unwidened window the
    /// floor is provably vacuous (every arrival is at least
    /// `heap_min + lookahead` = window end).
    pub(crate) fn admit_staged(&mut self, floor: SimTime) -> u64 {
        let mut batch = std::mem::take(&mut self.staged);
        batch.sort_unstable_by_key(|m| (m.arrive, m.src.0, m.seq));
        let admitted = batch.len() as u64;
        for m in batch.drain(..) {
            let l = m.dst.index();
            let deliver = if m.nic {
                let t =
                    m.arrive.max(floor).max(self.nic_svc_free[l]) + self.model.one_sided_occupancy;
                self.nic_svc_free[l] = t;
                t
            } else {
                let t = m.arrive.max(floor).max(self.recv_free[l]) + self.model.recv_overhead;
                self.recv_free[l] = t;
                t
            };
            self.schedule(
                deliver,
                Event::Deliver {
                    src: m.src,
                    dst: m.dst,
                    msg: m.msg,
                    nic: m.nic,
                },
            );
        }
        self.staged = batch;
        admitted
    }

    /// Virtual-time budget granted to `node`'s program for local
    /// run-ahead (the lease quantum): the program may consume up to this
    /// much virtual time — servicing page hits and pure computation on
    /// its own stack — without rendezvousing with the kernel.
    ///
    /// Sound because while a program holds the floor nothing else runs,
    /// so the event heap is frozen. Any event that
    /// could mutate this node's protocol state before the horizon
    /// either (a) already targets this node and is bounded by
    /// `direct_min`, or (b) is a message admitted at a future window
    /// boundary, whose delivery time is at least `window_end` (every
    /// delivery is at least `min_net_delay` after the send instant, and
    /// every in-window send instant is at least `heap_min`). One
    /// nanosecond is shaved off so locally serviced accesses stay
    /// strictly before any handler the kernel has yet to run (see
    /// docs/PERF.md). Fault injection never shortens a delivery (drops
    /// remove it, spikes lengthen it), so the lookahead bound survives
    /// a lossy network.
    pub(crate) fn local_budget(&self, node: NodeId) -> Dur {
        let mut horizon = self.now.0.saturating_add(MAX_LOCAL_QUANTUM.0);
        if let Some(&Reverse(t)) = self.direct_min[node.index()].peek() {
            horizon = horizon.min(t.0);
        }
        horizon = horizon.min(self.window_end.0);
        Dur(horizon.saturating_sub(self.now.0).saturating_sub(1))
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The nodes whose programs never finished.
    pub(crate) fn blocked_nodes(&self) -> Vec<NodeId> {
        self.app
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.finished)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Apply a scheduled fault transition to this kernel's own state
    /// (down/dead flags, counters). Called by the driver when an
    /// [`Event::Fault`] pops, *before* the behavior's `on_fault` hook
    /// for crashes (so the hook already sees a dead world) and before
    /// it for recoveries too (so the hook may send again).
    pub(crate) fn apply_fault(&mut self, node: NodeId, change: FaultChange) {
        let l = node.index();
        match change {
            FaultChange::SelfCrash { permanent } => {
                assert!(!self.down[l], "node {node} crashed while already down");
                self.down[l] = true;
                self.dead[l] = permanent;
                self.stats.crashes += 1;
            }
            FaultChange::SelfRecover => {
                assert!(
                    self.down[l] && !self.dead[l],
                    "recovery for {node} without a preceding recoverable crash"
                );
                self.down[l] = false;
                self.stats.recoveries += 1;
            }
            FaultChange::PeerDown { .. } | FaultChange::PeerUp(_) => {}
        }
    }

    /// True while `node` is crashed.
    pub(crate) fn node_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// True if `node` crashed permanently.
    pub(crate) fn node_dead(&self, node: NodeId) -> bool {
        self.dead[node.index()]
    }

    /// Record that a delivery or timer addressed to a down node was
    /// discarded.
    pub(crate) fn note_crash_dropped(&mut self) {
        self.stats.crash_dropped += 1;
    }

    /// Note that a Resume for a down (but recoverable) node was
    /// discarded; [`Self::take_resume_dropped`] owes one replacement.
    pub(crate) fn note_resume_dropped(&mut self, node: NodeId) {
        self.resume_dropped[node.index()] = true;
    }

    /// Consume the owed-Resume flag for `node` at recovery.
    pub(crate) fn take_resume_dropped(&mut self, node: NodeId) -> bool {
        std::mem::take(&mut self.resume_dropped[node.index()])
    }

    /// True if `node`'s program is parked on an op that has not yet
    /// been completed (used at a permanent crash to decide whether a
    /// zombie reply is owed).
    pub(crate) fn op_awaiting_reply(&self, node: NodeId) -> bool {
        let slot = &self.app[node.index()];
        slot.blocked && slot.pending_reply.is_none()
    }

    /// One 53-bit fault draw (uniform in `[0, 2^53)`) on the (src, dst)
    /// link stream.
    fn fault_draw(&mut self, link: usize) -> u64 {
        self.faults_rng[link].next_u64() >> 11
    }

    /// Index into the per-link stream tables.
    #[inline]
    fn link(&self, src: NodeId, dst: NodeId) -> usize {
        src.index() * self.nnodes as usize + dst.index()
    }

    /// A scheduled partition severs `src → dst` right now: the message
    /// dies on the wire (after occupying the sender's NIC),
    /// deterministically and without consuming any PRNG draw.
    fn link_cut(&mut self, src: NodeId, dst: NodeId) -> bool {
        let now = self.now;
        let cut = src != dst
            && self
                .model
                .faults
                .partitions
                .iter()
                .any(|p| p.cuts(src.0, dst.0, now));
        if cut {
            self.stats.partition_dropped += 1;
        }
        cut
    }

    fn send_inner(&mut self, src: NodeId, dst: NodeId, msg: N::Msg) {
        let bytes = msg.wire_bytes();
        self.stats.record(msg.kind_id(), msg.kind(), bytes);
        // Sender side: the message queues behind whatever this node is
        // already transmitting.
        let total_bytes = (bytes + self.model.header_bytes) as u64;
        let tx = self.model.send_overhead + self.model.byte_cost(total_bytes);
        let s = src.index();
        let depart_start = self.now.max(self.nic_free[s]);
        let depart_end = depart_start + tx;
        self.nic_free[s] = depart_end;
        if self.link_cut(src, dst) {
            return;
        }
        // Fault injection. Node-local sends never cross the lossy wire.
        // The draw order is fixed per link (drop, then dup, then one
        // spike draw per staged copy) so runs are reproducible per
        // seed. A dropped message still occupied the
        // sender's NIC above: the packet left the host and died on the
        // wire.
        if self.faults_on && src != dst {
            let link = self.link(src, dst);
            if self.fault_draw(link) < self.drop_thr {
                self.stats.record_dropped(msg.kind_id(), msg.kind());
                return;
            }
            if self.fault_draw(link) < self.dup_thr {
                self.stats.record_duplicated(msg.kind_id(), msg.kind());
                let copy = msg.clone();
                self.stage_copy(depart_end, src, dst, copy);
            }
        }
        self.stage_copy(depart_end, src, dst, msg);
    }

    /// Wire half of a delivery: jitter and delay spikes on the link
    /// stream, ending in a staged [`InTransit`] record (self sends take
    /// the identical path). Receiver-side serialization happens at
    /// admission.
    fn stage_copy(&mut self, depart_end: SimTime, src: NodeId, dst: NodeId, msg: N::Msg) {
        let mut arrive = depart_end + self.model.wire_latency;
        if self.jitter_on {
            let link = self.link(src, dst);
            arrive += Dur::nanos(self.jitter_rng[link].below(self.model.jitter_max.as_nanos()));
        }
        if self.faults_on && src != dst && self.spike_thr > 0 {
            let link = self.link(src, dst);
            if self.fault_draw(link) < self.spike_thr {
                let spike = self.model.faults.spike_max.as_nanos();
                arrive += Dur::nanos(self.faults_rng[link].below(spike));
            }
        }
        self.stage(arrive, src, dst, msg, false);
    }

    /// One-sided (RDMA-style) send on a fabric that supports it: the
    /// initiator's NIC DMAs the frame out (occupying `nic_free`, but
    /// charging no `send_overhead` — no software runs), the op
    /// completes `one_sided_latency` plus byte time later, and
    /// admission will deliver it as a NIC-level event with no receive
    /// path involvement at the target. No jitter and no drop/dup
    /// draws: a lossless RDMA fabric delivers in order, and lossy
    /// fabrics never reach this path (the reliable transport adapter
    /// inherits the two-sided default of [`Transport::send_one_sided`],
    /// so under a `FaultPlan` one-sided ops ride the sequenced
    /// transport instead). Scheduled partitions still cut the link —
    /// deterministically and without PRNG draws, like `send_inner`.
    fn send_one_sided_native(&mut self, src: NodeId, dst: NodeId, msg: N::Msg) {
        let bytes = msg.wire_bytes();
        self.stats.record(msg.kind_id(), msg.kind(), bytes);
        let total_bytes = (bytes + self.model.header_bytes) as u64;
        let tx = self.model.one_sided_occupancy + self.model.one_sided_byte_cost(total_bytes);
        let s = src.index();
        let depart_start = self.now.max(self.nic_free[s]);
        let depart_end = depart_start + tx;
        self.nic_free[s] = depart_end;
        if self.link_cut(src, dst) {
            return;
        }
        let arrive = depart_end + self.model.one_sided_latency;
        self.stage(arrive, src, dst, msg, true);
    }

    /// Stage one message for the next admission, stamped with its
    /// sender's next sequence number.
    fn stage(&mut self, arrive: SimTime, src: NodeId, dst: NodeId, msg: N::Msg, nic: bool) {
        let seq = &mut self.send_seq[src.index()];
        self.staged.push(InTransit {
            arrive,
            src,
            seq: *seq,
            dst,
            msg,
            nic,
        });
        *seq += 1;
    }
}

impl<N: NodeBehavior + ?Sized> Transport<N::Msg, N::Reply> for Kernel<N> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn nnodes(&self) -> u32 {
        self.nnodes
    }

    fn model(&self) -> &CostModel {
        &self.model
    }

    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: N::Msg) {
        self.send_inner(src, dst, msg);
    }

    fn send_one_sided(&mut self, src: NodeId, dst: NodeId, msg: N::Msg) {
        if self.model.supports_one_sided() {
            self.send_one_sided_native(src, dst, msg);
        } else {
            // Fabric capability probe failed: downgrade to an ordinary
            // two-sided message; the protocol's software path handles
            // it in on_message.
            self.send_inner(src, dst, msg);
        }
    }

    fn complete_op_after(&mut self, node: NodeId, reply: N::Reply, delay: Dur) {
        let slot = &mut self.app[node.index()];
        assert!(
            (slot.blocked || slot.in_op) && slot.pending_reply.is_none(),
            "complete_op on {} with no parked op",
            node
        );
        slot.blocked = false;
        slot.pending_reply = Some(reply);
        let at = self.now + delay;
        self.schedule(at, Event::Resume { node });
    }

    fn set_timer_on(&mut self, node: NodeId, delay: Dur, token: u64) {
        let at = self.now + delay;
        self.schedule(at, Event::Timer { node, token });
    }

    fn note_retransmit(&mut self, id: KindId, kind: &'static str) {
        self.stats.record_retransmit(id, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_seeds_differ_per_link_and_per_base() {
        let a = link_seed(1, 0, 1);
        assert_ne!(a, link_seed(1, 1, 0), "direction must matter");
        assert_ne!(a, link_seed(1, 0, 2), "destination must matter");
        assert_ne!(a, link_seed(2, 0, 1), "base seed must matter");
    }

    #[derive(Clone)]
    struct NoMsg;
    impl Payload for NoMsg {
        fn wire_bytes(&self) -> usize {
            0
        }
        fn kind(&self) -> &'static str {
            "NoMsg"
        }
        fn kind_id(&self) -> KindId {
            KindId(40)
        }
    }

    /// Never run: the tests below drive the queue alone.
    struct Idle;
    impl NodeBehavior for Idle {
        type Msg = NoMsg;
        type Op = ();
        type Reply = ();
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: NoMsg) {}
        fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
            OpOutcome::Blocked
        }
    }

    fn idle_kernel(nnodes: u32) -> Kernel<Idle> {
        let mut kernel = Kernel::new(nnodes, CostModel::lan_1992());
        kernel.set_window_end(SimTime(u64::MAX));
        kernel
    }

    fn timer(node: u32, token: u64) -> Event<NoMsg> {
        let node = NodeId(node);
        Event::Timer { node, token }
    }

    /// The free list hands a popped event's slot to the next one
    /// scheduled: the slab is as long as the queue ever was, not as
    /// long as the run.
    #[test]
    fn the_slab_is_bounded_by_the_events_outstanding_at_once() {
        const K: u64 = 7;
        let mut kernel = idle_kernel(4);
        let mut rng = XorShift64::new(24);
        let (mut outstanding, mut popped) = (0, 0);
        for token in 0..10_000 {
            if outstanding == K || (outstanding > 0 && rng.below(2) == 0) {
                let (t, _) = kernel.pop_in_window().expect("events are outstanding");
                assert_eq!(t, kernel.now());
                outstanding -= 1;
                popped += 1;
            }
            let at = kernel.now() + Dur::nanos(rng.below(50));
            kernel.schedule(at, timer(rng.below(4) as u32, token));
            outstanding += 1;
            assert_eq!(kernel.heap_len() as u64, outstanding);
        }
        assert!(
            popped > 1_000 && kernel.slab.len() as u64 <= K,
            "{popped} pops, {} slots",
            kernel.slab.len()
        );
        let held = kernel.slab.iter().flatten().count();
        assert_eq!(
            (held, held + kernel.free.len()),
            (kernel.heap_len(), kernel.slab.len())
        );
    }

    /// The heap orders keys exactly as it ordered whole entries: by
    /// time, then node, then the order the node's events were scheduled
    /// in. The token says which event came back with which key.
    #[test]
    fn events_pop_in_time_node_schedule_order() {
        let mut kernel = idle_kernel(5);
        let mut rng = XorShift64::new(0x5EED);
        // Few distinct times and nodes, so most keys tie on both.
        let mut due: Vec<(u64, u32)> = (0..2_000).map(|i| (i % 40, i as u32 % 5)).collect();
        for i in (1..due.len()).rev() {
            due.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut expected = Vec::new();
        for (token, &(t, node)) in due.iter().enumerate() {
            kernel.schedule(SimTime(t), timer(node, token as u64));
            // `token` is also the per-node schedule order, being global.
            expected.push((t, node, token as u64));
        }
        expected.sort_unstable();
        let popped: Vec<_> = std::iter::from_fn(|| kernel.pop_in_window())
            .map(|(t, event)| match event {
                Event::Timer { node, token } => (t.0, node.0, token),
                _ => unreachable!("only timers were scheduled"),
            })
            .collect();
        assert_eq!(popped, expected);
        assert_eq!(kernel.events, 2_000);
    }
}
