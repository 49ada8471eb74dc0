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
//!   for RTO seeding ([`crate::reliable::RelConfig::from_model`]) and
//!   local-cost bookkeeping.
//! * **One wait.** [`SocketRt::step`] blocks in one `ppoll(2)` over the
//!   socket and the [`SocketRt::wake_on`] doorbell, up to its bound or
//!   the next timer to the nanosecond — not a tick, as `SO_RCVTIMEO` is.
//!   Its parts are public, so a thread can sleep in a [`Wait`] without
//!   holding the runtime.
//! * **Datagram framing.** `[u32 src][Wire-encoded message]`, one
//!   message per datagram. Malformed or truncated datagrams are dropped
//!   (counted); retransmission recovers.
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

use crate::kernel::{NodeBehavior, OpOutcome};
use crate::model::CostModel;
use crate::msg::{NodeId, Payload};
use crate::stats::{KindId, NetStats};
use crate::time::{Dur, SimTime};
use crate::transport::{Ctx, Transport};
use crate::wire::{from_wire_bytes, Wire};

/// Largest datagram we accept: a protocol message tops out at a batch
/// of pages plus headers, far under the 64 KiB UDP limit.
const RECV_BUF: usize = 65_536;

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
        self.stats.record(msg.kind_id(), msg.kind(), bytes);
        if dst == src {
            self.loopback.push_back(msg);
            return;
        }
        let buf = &mut self.send_buf;
        buf.clear();
        src.0.encode(buf);
        msg.encode(buf);
        // UDP is fire-and-forget: a failed send (buffer full, transient
        // ICMP refusal while a peer is still booting) is just loss, and
        // the reliability layer above retransmits.
        if self.sock.send_to(buf, self.peers[dst.index()]).is_err() {
            self.stats.record_dropped(msg.kind_id(), msg.kind());
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

    fn note_retransmit(&mut self, id: KindId, kind: &'static str) {
        self.stats.record_retransmit(id, kind);
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

/// One wait of a [`SocketRt`], taken out of it by [`SocketRt::waiter`]:
/// a copy of its poll set and the timeout, so that a thread can sleep
/// without holding the runtime.
pub struct Wait {
    polls: [libc::pollfd; 2],
    timeout: libc::timespec,
}

impl Wait {
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
    pub fn new(
        node: N,
        me: NodeId,
        sock: UdpSocket,
        peers: Vec<SocketAddr>,
        model: CostModel,
    ) -> Self {
        assert!((me.index()) < peers.len(), "own rank outside roster");
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
        Wait {
            polls: core.polls,
            timeout: libc::timespec {
                tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
                tv_nsec: i64::from(wait.subsec_nanos()),
            },
        }
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
    use crate::reliable::{RelConfig, Reliable};

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
    ) -> SocketRt<Reliable<EchoNode>> {
        let model = CostModel::lan_1992();
        let cfg = RelConfig::from_model(&model, peers.len() as u32);
        let inner = EchoNode {
            total: 0,
            done: false,
        };
        SocketRt::new(
            Reliable::new(inner, peers.len() as u32, cfg),
            NodeId(node_id),
            sock,
            peers,
            model,
        )
    }

    #[test]
    fn reliable_echo_over_localhost_udp() {
        let s0 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let s1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![s0.local_addr().unwrap(), s1.local_addr().unwrap()];
        let mut server = mk_rt(0, s0, peers.clone());
        let mut client = mk_rt(1, s1, peers);
        let server_thread = std::thread::spawn(move || {
            server.start();
            while !server.node().inner().done {
                server.step(Duration::from_millis(10));
            }
            server.node().inner().total
        });
        client.start();
        let poll = Duration::from_millis(5);
        let mut replies = Vec::new();
        for x in [3u64, 4, 5] {
            replies.push(client.run_op(x, poll));
        }
        replies.push(client.run_op(0, poll)); // sentinel stops the server
        assert_eq!(replies, vec![3, 7, 12, 12]);
        assert_eq!(server_thread.join().unwrap(), 12);
        assert!(client.stats().total_msgs() > 0);
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
        let mut node = mk_rt(0, s0, peers.clone());
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
