//! Real-socket transport backend: the same [`Transport`] surface the
//! PDES kernel implements, but over wall-clock time and UDP datagrams.
//!
//! The simulator runs a whole fleet inside one process and one event
//! loop; here each node is its own OS process owning one
//! [`SocketRt`] — a single-node reactor around a bound [`UdpSocket`]
//! and the full peer address list (discovery/handshake happens before
//! construction: the `dsm-cluster` launcher collects every child's
//! bound port and broadcasts the roster, see `docs/CLUSTER.md`).
//!
//! Design points:
//!
//! * **Same behaviors, same stack.** `SocketRt` hosts any
//!   [`NodeBehavior`] whose message type is [`Wire`]. In cluster mode
//!   that behavior is `Reliable<DsmNode>` — the seq/ack/SACK/adaptive-
//!   RTO transport is reused unchanged as the user-space reliability
//!   layer over lossy UDP, exactly as it runs over the simulated lossy
//!   kernel.
//! * **No one-sided path.** `Reliable`'s inner port inherits the
//!   default [`Transport::send_one_sided`] (= two-sided send), so a
//!   protocol's RDMA-style ops degrade to ordinary sequenced datagrams
//!   here; `SocketCore` never needs a NIC-level delivery hook.
//! * **Time is real.** [`Transport::now`] reports wall-clock
//!   nanoseconds since reactor start. Cost-model delays (`extra`,
//!   `complete_op_after` latency) are *not* slept — real execution and
//!   the real network provide the latency. The model is still carried
//!   for its fault plan and local-cost bookkeeping, but not for the
//!   retransmission timeout: a loopback link's is [`loopback_rel`], not
//!   the simulated era's.
//! * **One wait.** [`SocketRt::step`] blocks in one `ppoll(2)` over the
//!   socket and the [`SocketRt::wake_on`] doorbell, up to its bound or
//!   the next timer to the nanosecond — not a tick, as `SO_RCVTIMEO` is.
//!   Its parts are public, so a thread can sleep in a [`Wait`] without
//!   holding the runtime: the full one ([`SocketRt::waiter`]), or one on
//!   the doorbell alone ([`SocketRt::bell`]) for a thread that leaves the
//!   socket and the timers to whoever holds the runtime — a cluster
//!   node's serving thread while its program runs an op.
//! * **Datagram framing.** `[u32 src][Wire-encoded message]`, one
//!   message per datagram. Malformed or truncated datagrams are dropped
//!   (counted); retransmission recovers. A larger frame than one
//!   datagram holds panics its sender, naming its kind and size.
//! * **The model's loss, acted out.** The cost model's [`FaultPlan`]
//!   drops or duplicates outbound datagrams by its probabilities, drawn
//!   from the plan's seed mixed with the link, as the simulator's
//!   kernel draws them; so a lossy configuration is lossy on real
//!   sockets too. A plan's crash or partition schedule or delay spikes
//!   cannot be acted out here, and [`SocketRt::new`] refuses them.
//!
//! Determinism explicitly does **not** carry over: two cluster runs
//! interleave differently. What is preserved is the application-level
//! result of data-race-free programs — the loopback cluster tests
//! compare final output, not traces, against the simulator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::ptr;
use std::time::{Duration, Instant};

use crate::kernel::{link_seed, NodeBehavior, OpOutcome};
use crate::model::{CostModel, FaultPlan};
use crate::msg::{NodeId, Payload};
use crate::reliable::RelConfig;
use crate::rng::XorShift64;
use crate::stats::NetStats;
use crate::time::{Dur, SimTime};
use crate::trace::{Kind, Rec, Sink};
use crate::transport::{Ctx, Transport};
use crate::wire::{from_wire_bytes, Wire};

/// The reliable transport's timing on a loopback socket, whose round
/// trip is ~10–30 µs (~0.2–0.5 ms under a debug build's load). The
/// first RTO, before a link's first RTT sample, is 2 ms: two orders of
/// magnitude above that round trip, and ten times below the ~20–23 ms
/// that [`RelConfig::from_model`] derives from the 1992 LAN. Every RTO
/// computed from samples is at least 5 ms (TCP's RTO_min, RFC 6298
/// §2.4): a reply or a deferred ack that a busy two-core host wakes
/// late is held back for milliseconds, and a floor at 2 ms resent such
/// frames in about one lossless 4-node run in 25. Backoff doubles the
/// RTO up to 32 ms.
pub const LOOPBACK_REL: RelConfig = RelConfig {
    rto_initial: Dur::millis(2),
    rto_min: Dur::millis(5),
    rto_max: Dur::millis(32),
    suspect_after: 3,
};

/// [`LOOPBACK_REL`] for a socket whose fault plan drops datagrams: there
/// every lost frame waits out an RTO, and with a tenth of them lost the
/// waits, not the spurious resends, are the cost — a 5 ms floor made the
/// lossy cluster tests ten times slower. So the first RTO is 1 ms and the
/// floor is the simulator's 50 µs.
pub const LOSSY_LOOPBACK_REL: RelConfig = RelConfig {
    rto_initial: Dur::millis(1),
    rto_min: Dur::micros(50),
    rto_max: Dur::millis(32),
    suspect_after: 3,
};

/// The reliable transport's timing on a loopback socket that acts out
/// `plan`: [`LOSSY_LOOPBACK_REL`] if it drops datagrams, else
/// [`LOOPBACK_REL`].
pub fn loopback_rel(plan: &FaultPlan) -> RelConfig {
    match plan.drop_prob > 0.0 {
        true => LOSSY_LOOPBACK_REL,
        false => LOOPBACK_REL,
    }
}

/// Largest datagram we accept.
const RECV_BUF: usize = 65_536;

/// All one UDP/IPv4 datagram carries; a frame is never split.
const MAX_DATAGRAM: usize = 65_507;

/// The [`Transport`] half of the reactor: socket, peer roster, timer
/// heap, wall clock, and the reply slot for the one local program.
pub struct SocketCore<M, R> {
    sock: UdpSocket,
    /// What a wait polls: the socket, then the `wake_on` doorbell (fd
    /// -1, which `ppoll` skips, until there is one).
    polls: [libc::pollfd; 2],
    /// One datagram's bytes, reused by every send.
    send_buf: Vec<u8>,
    peers: Vec<SocketAddr>,
    me: NodeId,
    model: CostModel,
    /// Wall-clock origin of this node's timeline.
    epoch: Instant,
    /// Pending timers as `Reverse((deadline_nanos, token))` — a min-heap
    /// on deadline, ties broken by token for stable pop order.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    /// Self-sends: delivered from the local queue, never the wire.
    loopback: VecDeque<M>,
    /// Completed reply for the local op in flight, if any.
    reply: Option<R>,
    stats: NetStats,
    /// The model's drops and duplicates, if its plan has any.
    loss: Option<Loss>,
}

/// The drops and duplicates of a [`FaultPlan`] on one node's outbound
/// datagrams: one stream per link, seeded and drawn as the kernel's.
struct Loss {
    streams: Vec<XorShift64>,
    drop: u64,
    dup: u64,
}

impl Loss {
    /// Node `me`'s draws, one stream to each of `nnodes` nodes; `None`
    /// if `plan` neither drops nor duplicates.
    fn new(plan: &FaultPlan, me: NodeId, nnodes: u32) -> Option<Self> {
        (plan.drop_prob > 0.0 || plan.dup_prob > 0.0).then(|| Loss {
            streams: (0..nnodes)
                .map(|dst| XorShift64::new(link_seed(plan.seed, me.0, dst)))
                .collect(),
            drop: FaultPlan::threshold(plan.drop_prob),
            dup: FaultPlan::threshold(plan.dup_prob),
        })
    }

    /// How many copies of a datagram to `dst` leave: 0, 1 or 2.
    fn copies(&mut self, dst: NodeId) -> usize {
        let stream = &mut self.streams[dst.index()];
        if stream.next_u64() >> 11 < self.drop {
            0
        } else if stream.next_u64() >> 11 < self.dup {
            2
        } else {
            1
        }
    }
}

/// What of `plan` real sockets cannot act out, as a refusal naming it;
/// `None` if the plan only drops and duplicates.
fn unplayable(plan: &FaultPlan) -> Option<String> {
    let named: Vec<&str> = [
        (!plan.crashes.is_empty(), "crash schedule"),
        (!plan.partitions.is_empty(), "partition schedule"),
        (
            plan.spike_prob > 0.0 && plan.spike_max > Dur::ZERO,
            "delay spikes",
        ),
    ]
    .into_iter()
    .filter_map(|(has, name)| has.then_some(name))
    .collect();
    (!named.is_empty()).then(|| {
        format!(
            "real sockets cannot act out the fault plan's {}: they only drop and duplicate datagrams",
            named.join(" and ")
        )
    })
}

impl<M, R> SocketCore<M, R> {
    fn now_nanos(&self) -> u64 {
        let e = self.epoch.elapsed();
        e.as_secs() * 1_000_000_000 + u64::from(e.subsec_nanos())
    }

    /// Deadline of the earliest pending timer, if any.
    fn next_deadline(&self) -> Option<u64> {
        self.timers.peek().map(|Reverse((d, _))| *d)
    }
}

impl<M: Payload + Wire, R> SocketCore<M, R> {
    /// The context the hosted behavior's hooks run in.
    fn ctx<N: NodeBehavior<Msg = M, Reply = R>>(&mut self) -> Ctx<'_, N> {
        let node = self.me;
        Ctx { port: self, node }
    }
}

impl<M: Payload + Wire, R> Transport<M, R> for SocketCore<M, R> {
    fn now(&self) -> SimTime {
        SimTime(self.now_nanos())
    }

    fn nnodes(&self) -> u32 {
        self.peers.len() as u32
    }

    fn model(&self) -> &CostModel {
        &self.model
    }

    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: M) {
        debug_assert_eq!(src, self.me, "socket backend hosts exactly one node");
        // Stats record the *modeled* wire size (header_bytes + payload),
        // keeping traffic tables comparable with simulator runs.
        let bytes = msg.wire_bytes() + self.model.header_bytes;
        self.stats.bind(msg.kind_id(), msg.kind());
        let at = self.now();
        let note = |kind| Rec::new(at, src, kind, dst.0.into(), msg.kind_id(), bytes as u64);
        self.stats.rec(&note(Kind::Send));
        if dst == src {
            self.loopback.push_back(msg);
            return;
        }
        let buf = &mut self.send_buf;
        buf.clear();
        src.0.encode(buf);
        msg.encode(buf);
        // Reliable would retransmit a frame that cannot fit forever.
        assert!(
            buf.len() <= MAX_DATAGRAM,
            "a {} message of {} bytes does not fit one UDP datagram ({MAX_DATAGRAM} bytes)",
            msg.kind(),
            buf.len()
        );
        let copies = self.loss.as_mut().map_or(1, |loss| loss.copies(dst));
        match copies {
            0 => self.stats.rec(&note(Kind::Drop)),
            2 => self.stats.rec(&note(Kind::Dup)),
            _ => {}
        }
        for _ in 0..copies {
            // UDP is fire-and-forget: a failed send (buffer full,
            // transient ICMP refusal while a peer is still booting) is
            // just loss, and the reliability layer above retransmits.
            if self.sock.send_to(buf, self.peers[dst.index()]).is_err() {
                self.stats.rec(&note(Kind::Drop));
            }
        }
    }

    fn complete_op_after(&mut self, node: NodeId, reply: R, _delay: Dur) {
        // Local install delays are real compute here, not modeled time.
        debug_assert_eq!(node, self.me, "op completion for a foreign node");
        debug_assert!(self.reply.is_none(), "double op completion");
        self.reply = Some(reply);
    }

    fn set_timer_on(&mut self, node: NodeId, delay: Dur, token: u64) {
        debug_assert_eq!(node, self.me, "timer for a foreign node");
        self.timers
            .push(Reverse((self.now_nanos() + delay.as_nanos(), token)));
    }

    fn rec(&mut self, r: Rec) {
        self.stats.rec(&r);
    }
}

/// One node's event reactor: a [`NodeBehavior`] plus its
/// [`SocketCore`], stepped by the hosting thread: a cluster node runs
/// each op with [`SocketRt::run_op`], dispatches between ops with
/// [`SocketRt::dispatch_due`] and [`SocketRt::recv_one`], and sleeps in
/// a [`Wait`] without the runtime (see `dsm-core`'s cluster module).
pub struct SocketRt<N: NodeBehavior> {
    core: SocketCore<N::Msg, N::Reply>,
    node: N,
    buf: Vec<u8>,
}

fn poll_in(fd: RawFd) -> libc::pollfd {
    libc::pollfd {
        fd,
        events: libc::POLLIN,
        revents: 0,
    }
}

/// One wait of a [`SocketRt`], taken out of it by [`SocketRt::waiter`]
/// or [`SocketRt::bell`]: a copy of its poll set and the timeout, so
/// that a thread can sleep without holding the runtime, as often as it
/// likes.
#[derive(Clone, Copy)]
pub struct Wait {
    polls: [libc::pollfd; 2],
    timeout: libc::timespec,
}

impl Wait {
    fn new(polls: [libc::pollfd; 2], wait: Duration) -> Wait {
        Wait {
            polls,
            timeout: libc::timespec {
                tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
                tv_nsec: i64::from(wait.subsec_nanos()),
            },
        }
    }

    /// Sleep until a datagram lands, the doorbell rings or the timeout
    /// passes; true if the socket is readable.
    pub fn sleep(mut self) -> bool {
        let (fds, timeout) = (self.polls.as_mut_ptr(), &self.timeout);
        // SAFETY: two entries at `fds` and `timeout` are live and ours
        // for the call; a null mask leaves the signal mask alone.
        let ready = unsafe { libc::ppoll(fds, 2, timeout, ptr::null()) };
        // -1 is EINTR, an empty wait; a doorbell alone dispatches nothing.
        ready > 0 && self.polls[0].revents != 0
    }
}

impl<N: NodeBehavior> SocketRt<N>
where
    N::Msg: Wire,
{
    /// Build a reactor for node `me` of `peers.len()` nodes. `sock`
    /// must already be bound; `peers[i]` is node *i*'s address (entry
    /// `me` is unused). Does not call [`NodeBehavior::on_start`] —
    /// call [`SocketRt::start`] once the full roster is live.
    ///
    /// # Panics
    ///
    /// If `model`'s fault plan schedules crashes or partitions or has
    /// delay spikes, naming them: a socket only drops and duplicates.
    pub fn new(
        node: N,
        me: NodeId,
        sock: UdpSocket,
        peers: Vec<SocketAddr>,
        model: CostModel,
    ) -> Self {
        assert!((me.index()) < peers.len(), "own rank outside roster");
        if let Some(refusal) = unplayable(&model.faults) {
            panic!("{refusal}");
        }
        let loss = Loss::new(&model.faults, me, peers.len() as u32);
        // `step` waits in `ppoll`, never in a receive.
        sock.set_nonblocking(true).expect("non-blocking socket");
        SocketRt {
            core: SocketCore {
                polls: [poll_in(sock.as_raw_fd()), poll_in(-1)],
                send_buf: Vec::new(),
                sock,
                peers,
                me,
                model,
                epoch: Instant::now(),
                timers: BinaryHeap::new(),
                loopback: VecDeque::new(),
                reply: None,
                stats: NetStats::new(),
                loss,
            },
            node,
            buf: vec![0; RECV_BUF],
        }
    }

    /// Also end every wait while `fd` (kept open) is readable: the one
    /// doorbell. The caller drains it, or every wait ends at once.
    pub fn wake_on(&mut self, fd: RawFd) {
        self.core.polls[1] = poll_in(fd);
    }

    /// Run the behavior's `on_start` hook.
    pub fn start(&mut self) {
        self.node.on_start(&mut self.core.ctx());
    }

    /// Dispatch at most one event — a queued loopback message, a due
    /// timer, or a datagram arriving within `max_wait` or before a
    /// [`SocketRt::wake_on`] doorbell — and report whether anything was
    /// dispatched.
    pub fn step(&mut self, max_wait: Duration) -> bool {
        self.dispatch_due() || (self.waiter(max_wait).sleep() && self.recv_one())
    }

    /// Dispatch a queued loopback message, else a due timer, without
    /// waiting; false if neither was there.
    pub fn dispatch_due(&mut self) -> bool {
        let SocketRt { core, node, .. } = self;
        if let Some(msg) = core.loopback.pop_front() {
            let me = core.me;
            node.on_message(&mut core.ctx(), me, msg);
            return true;
        }
        let due = core.next_deadline().is_some_and(|d| d <= core.now_nanos());
        if due {
            let Reverse((_, token)) = core.timers.pop().expect("peeked");
            node.on_timer(&mut core.ctx(), token);
        }
        due
    }

    /// Take one datagram off the socket without waiting and dispatch it;
    /// false if none was there or it was dropped. Undecodable datagrams
    /// and datagrams from unknown ranks are dropped silently (the sender
    /// retransmits what mattered).
    pub fn recv_one(&mut self) -> bool {
        let SocketRt { core, node, buf } = self;
        let n = match core.sock.recv_from(buf) {
            Ok((n, _)) => n,
            Err(e) => {
                use ErrorKind::{ConnectionRefused, WouldBlock};
                let expected = matches!(e.kind(), WouldBlock | ConnectionRefused);
                debug_assert!(expected, "unexpected socket error: {e}");
                return false;
            }
        };
        if n < 4 {
            return false;
        }
        let src = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        if src as usize >= core.peers.len() || NodeId(src) == core.me {
            return false;
        }
        let Some(msg) = from_wire_bytes::<N::Msg>(&buf[4..n]) else {
            return false;
        };
        node.on_message(&mut core.ctx(), NodeId(src), msg);
        true
    }

    /// The wait until a datagram lands, the doorbell rings, the next
    /// timer is due or `max_wait` elapses — whichever is first.
    pub fn waiter(&self, max_wait: Duration) -> Wait {
        let core = &self.core;
        let mut wait = max_wait;
        if let Some(deadline) = core.next_deadline() {
            let due_in = deadline.saturating_sub(core.now_nanos());
            wait = wait.min(Duration::from_nanos(due_in));
        }
        Wait::new(core.polls, wait)
    }

    /// The wait until the doorbell rings or `wait` elapses, whatever
    /// lands on the socket or falls due: for a thread that leaves both to
    /// the one holding the runtime.
    pub fn bell(&self, wait: Duration) -> Wait {
        Wait::new([poll_in(-1), self.core.polls[1]], wait)
    }

    /// When the earliest pending timer is due, on [`Transport::now`]'s
    /// clock; `None` without timers.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.core.next_deadline().map(SimTime)
    }

    /// Run the local program's next op: hand it to the behavior, then
    /// step the reactor (waiting at most `poll` per step) until its
    /// reply arrives.
    pub fn run_op(&mut self, op: N::Op, poll: Duration) -> N::Reply {
        assert!(self.core.reply.is_none(), "previous reply not taken");
        let SocketRt { core, node, .. } = self;
        if let OpOutcome::Done(r) | OpOutcome::DoneAfter(r, _) = node.on_op(&mut core.ctx(), op) {
            // A handler may also have completed the op from inside
            // `on_op`, through the ctx; prefer the explicit return.
            core.reply = Some(r);
        }
        loop {
            if let Some(r) = self.core.reply.take() {
                return r;
            }
            self.step(poll);
        }
    }

    /// Traffic statistics accumulated so far (modeled byte sizes).
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// The hosted behavior.
    pub fn node(&self) -> &N {
        &self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::Reliable;
    use crate::stats::KindId;

    /// Two `SocketRt`s in one test process, stepped by two threads,
    /// running the reliable transport end-to-end over real localhost
    /// UDP: node 1 sends increments, node 0 accumulates and echoes.
    #[derive(Debug, Clone, PartialEq)]
    enum EchoMsg {
        Add(u64),
        Total(u64),
    }
    impl Payload for EchoMsg {
        fn wire_bytes(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            match self {
                EchoMsg::Add(_) => "Add",
                EchoMsg::Total(_) => "Total",
            }
        }
        fn kind_id(&self) -> KindId {
            match self {
                EchoMsg::Add(_) => KindId(40),
                EchoMsg::Total(_) => KindId(41),
            }
        }
    }
    impl Wire for EchoMsg {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                EchoMsg::Add(x) => {
                    out.push(0);
                    x.encode(out);
                }
                EchoMsg::Total(x) => {
                    out.push(1);
                    x.encode(out);
                }
            }
        }
        fn decode(r: &mut crate::wire::WireReader<'_>) -> Option<Self> {
            match r.u8()? {
                0 => Some(EchoMsg::Add(r.u64()?)),
                1 => Some(EchoMsg::Total(r.u64()?)),
                _ => None,
            }
        }
    }

    struct EchoNode {
        total: u64,
        done: bool,
    }
    impl NodeBehavior for EchoNode {
        type Msg = EchoMsg;
        type Op = u64;
        type Reply = u64;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: EchoMsg) {
            match msg {
                EchoMsg::Add(x) => {
                    self.total += x;
                    self.done = x == 0; // sentinel: last add
                    let t = self.total;
                    ctx.send(from, EchoMsg::Total(t));
                }
                EchoMsg::Total(t) => ctx.complete_op(t),
            }
        }
        fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, x: u64) -> OpOutcome<u64> {
            ctx.send(NodeId(0), EchoMsg::Add(x));
            OpOutcome::Blocked
        }
    }

    fn mk_rt(
        node_id: u32,
        sock: UdpSocket,
        peers: Vec<SocketAddr>,
        model: CostModel,
    ) -> SocketRt<Reliable<EchoNode>> {
        let inner = EchoNode {
            total: 0,
            done: false,
        };
        SocketRt::new(
            Reliable::new(inner, peers.len() as u32, LOOPBACK_REL),
            NodeId(node_id),
            sock,
            peers,
            model,
        )
    }

    /// Node 1 adds each of `adds`, then the sentinel 0, at node 0 over
    /// `model`; node 1's replies and stats, and node 0's total.
    fn echo_run(adds: &[u64], model: CostModel) -> (Vec<u64>, NetStats, u64) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s0 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let s1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![s0.local_addr().unwrap(), s1.local_addr().unwrap()];
        let mut server = mk_rt(0, s0, peers.clone(), model.clone());
        let mut client = mk_rt(1, s1, peers, model);
        let client_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                server.start();
                // Serve until the client has every reply: a lost one
                // is asked for again.
                while !client_done.load(Ordering::Acquire) {
                    server.step(Duration::from_millis(10));
                }
                assert!(server.node().inner().done, "the sentinel arrived");
                server.node().inner().total
            });
            client.start();
            let poll = Duration::from_millis(5);
            let mut replies: Vec<u64> = adds.iter().map(|&x| client.run_op(x, poll)).collect();
            replies.push(client.run_op(0, poll)); // the sentinel
            client_done.store(true, Ordering::Release);
            let total = server.join().unwrap();
            (replies, client.stats().clone(), total)
        })
    }

    #[test]
    fn reliable_echo_over_localhost_udp() {
        let (replies, stats, total) = echo_run(&[3, 4, 5], CostModel::lan_1992());
        assert_eq!(replies, vec![3, 7, 12, 12]);
        assert_eq!(total, 12);
        assert!(stats.total_msgs() > 0);
        assert_eq!(stats.total_dropped(), 0);
    }

    /// The model's fault plan drops and duplicates real datagrams, and
    /// the reliable transport hides it.
    #[test]
    fn a_lossy_plan_drops_and_duplicates_real_datagrams() {
        let adds: Vec<u64> = (1..=40).collect();
        let lossy = CostModel::lan_1992().with_faults(FaultPlan::lossy(0.3, 0.2, 5));
        let (replies, stats, total) = echo_run(&adds, lossy);
        let sums: Vec<u64> = (1..=40).map(|n| n * (n + 1) / 2).collect();
        assert_eq!(replies[..40], sums[..]);
        assert_eq!(total, 820);
        assert!(stats.total_dropped() > 0 && stats.total_duplicated() > 0);
        assert!(stats.total_retransmits() > 0);
    }

    /// A plan real sockets cannot act out is refused, naming what.
    #[test]
    fn crash_and_partition_schedules_are_refused_naming_them() {
        let at = SimTime(1_000);
        let plan = FaultPlan::lossy(0.1, 0.0, 1)
            .with_crash(0, at, None)
            .with_partition(vec![0], vec![1], at, SimTime(2_000));
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap(); 2];
        let model = CostModel::lan_1992().with_faults(plan);
        let build = std::panic::AssertUnwindSafe(|| drop(mk_rt(0, sock, peers, model)));
        let payload = std::panic::catch_unwind(build).expect_err("refused");
        let said = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            said.contains("crash schedule and partition schedule"),
            "{said}"
        );
    }

    /// Seq 0 is the unsequenced loopback marker: a datagram from a peer
    /// rank that claims it is dropped, not handed to the inner behavior
    /// past the dedup and epoch checks. A properly sequenced frame from
    /// the same socket still arrives, so the drop is not the socket's.
    #[test]
    fn peer_frame_claiming_loopback_seq_is_dropped() {
        use crate::reliable::RelMsg;
        let s0 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![s0.local_addr().unwrap(), peer.local_addr().unwrap()];
        let mut node = mk_rt(0, s0, peers.clone(), CostModel::lan_1992());
        node.start();
        let frame = |seq, x| {
            let mut buf = Vec::new();
            1u32.encode(&mut buf);
            RelMsg::Data {
                seq,
                ack: 0,
                sack: 0,
                epoch: 0,
                ack_epoch: 0,
                payload: EchoMsg::Add(x),
            }
            .encode(&mut buf);
            buf
        };
        for _ in 0..2 {
            peer.send_to(&frame(0, 5), peers[0]).unwrap();
        }
        peer.send_to(&frame(1, 7), peers[0]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.node().inner().total < 7 && Instant::now() < deadline {
            node.step(Duration::from_millis(10));
        }
        assert_eq!(node.node().inner().total, 7);
    }

    /// A frame larger than one datagram fails its sender at once,
    /// naming the message, instead of being recorded as loss and
    /// retransmitted forever.
    #[test]
    fn a_message_larger_than_a_datagram_fails_its_sender() {
        #[derive(Debug, Clone, PartialEq)]
        struct Blob(Vec<u8>);
        impl Payload for Blob {
            fn wire_bytes(&self) -> usize {
                self.0.len()
            }
            fn kind(&self) -> &'static str {
                "Blob"
            }
            fn kind_id(&self) -> KindId {
                KindId(43)
            }
        }
        impl Wire for Blob {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.0);
            }
            fn decode(_: &mut crate::wire::WireReader<'_>) -> Option<Self> {
                None
            }
        }
        let socks = [(); 2].map(|()| UdpSocket::bind("127.0.0.1:0").unwrap());
        let peers: Vec<_> = socks.iter().map(|s| s.local_addr().unwrap()).collect();
        let [sock, _peer] = socks;
        let mut rt = SocketRt::new(Silent, NodeId(0), sock, peers, CostModel::lan_1992());
        let fits = MAX_DATAGRAM - 4;
        rt.core.send_from(NodeId(0), NodeId(1), Blob(vec![0; fits]));
        let send = std::panic::AssertUnwindSafe(|| {
            rt.core
                .send_from(NodeId(0), NodeId(1), Blob(vec![0; fits + 1]))
        });
        let payload = std::panic::catch_unwind(send).expect_err("an oversized send fails");
        let said = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(said.contains("a Blob message of 65508 bytes"), "{said}");

        struct Silent;
        impl NodeBehavior for Silent {
            type Msg = Blob;
            type Op = ();
            type Reply = ();
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Blob) {}
            fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
                OpOutcome::Done(())
            }
        }
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        #[derive(Debug, Clone, PartialEq)]
        struct NoMsg;
        impl Payload for NoMsg {
            fn wire_bytes(&self) -> usize {
                0
            }
            fn kind(&self) -> &'static str {
                "NoMsg"
            }
            fn kind_id(&self) -> KindId {
                KindId(42)
            }
        }
        impl Wire for NoMsg {
            fn encode(&self, _out: &mut Vec<u8>) {}
            fn decode(_r: &mut crate::wire::WireReader<'_>) -> Option<Self> {
                Some(NoMsg)
            }
        }
        impl NodeBehavior for TimerNode {
            type Msg = NoMsg;
            type Op = ();
            type Reply = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
                ctx.set_timer(Dur::millis(20), 2);
                ctx.set_timer(Dur::millis(5), 1);
                ctx.set_timer(Dur::millis(40), 3);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: NoMsg) {}
            fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
                OpOutcome::Done(())
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, Self>, token: u64) {
                self.fired.push(token);
            }
        }
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![sock.local_addr().unwrap()];
        let mut rt = SocketRt::new(
            TimerNode { fired: Vec::new() },
            NodeId(0),
            sock,
            peers,
            CostModel::lan_1992(),
        );
        rt.start();
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.node().fired.len() < 3 && Instant::now() < deadline {
            rt.step(Duration::from_millis(5));
        }
        assert_eq!(rt.node().fired, vec![1, 2, 3]);
    }
}
