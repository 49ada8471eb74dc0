//! Reliable transport adapter: exactly-once, per-link-FIFO delivery on
//! top of a lossy network.
//!
//! [`Reliable<N>`] wraps any [`NodeBehavior`] and makes it run
//! unchanged over a network that drops, duplicates, and delays messages
//! (see [`crate::model::FaultPlan`]). The classic recipe:
//!
//! * **Per-link sequence numbers.** Every wrapped message to a peer is
//!   framed as [`RelMsg::Data`] carrying the link's next sequence
//!   number (starting at 1; 0 marks unsequenced node-local loopback,
//!   which never crosses the lossy wire).
//! * **Cumulative acks, piggybacked, standalone ones deferred.** Every
//!   outgoing `Data` frame carries the highest contiguously delivered
//!   sequence number from that peer. A delivery that owes the peer an
//!   ack arms at most one ack timer per link, of half the smoothed RTT
//!   and at most `ACK_DELAY_MAX` (40 µs), the delayed ACK of TCP (RFC
//!   1122 §4.2.3.2): any `Data` frame to that peer before it fires — a send
//!   or a retransmit — carries the ack, and a timer that finds nothing
//!   owed does nothing; only one that does sends a standalone
//!   [`RelMsg::Ack`]. A duplicate, or a frame that leaves a hole, is
//!   acked at once, as TCP acks an out-of-order segment (RFC 5681
//!   §4.2), so the sender learns what to stop or start resending
//!   without waiting on a timer.
//! * **Selective acknowledgement.** Both frame kinds carry a 64-bit
//!   SACK bitmap of sequence numbers held in the reorder buffer beyond
//!   the cumulative ack (bit k ⇔ `ack + 2 + k` received). The sender
//!   marks those frames and skips them when the retransmission timer
//!   fires, so a single lost frame costs a single resend instead of a
//!   full go-back-N window.
//! * **Receiver-side dedup and reordering.** Frames at or below the
//!   delivered watermark are discarded (and re-acked, since the peer is
//!   evidently retransmitting); frames beyond the next expected number
//!   wait in a reorder buffer. The inner behavior therefore sees each
//!   message exactly once, in send order per link — the delivery
//!   guarantee the eight DSM protocols were written against.
//! * **Adaptive retransmission timeout.** Each link keeps a
//!   Jacobson-style smoothed RTT (`srtt ← 7/8·srtt + 1/8·sample`,
//!   `rttvar ← 3/4·rttvar + 1/4·|dev|`) measured from ack round-trips,
//!   with Karn's rule: no samples from frames a retransmission timeout
//!   found unacked — resent ones, and those the peer held behind the
//!   hole, whose acks waited for it. Samples include the receiver's
//!   ack delay, as TCP's do. The RTO is `srtt + 4·rttvar +
//!   ACK_DELAY_MAX`, so a held-back ack is never taken for a lost frame
//!   even when the RTT barely varies; it is seeded from the cost-model
//!   guess before the first sample and doubled per retry up to a cap.
//! * **Stream epochs.** Each link direction carries an epoch number,
//!   bumped whenever the sender restarts the stream (its own crash
//!   recovery, or a `PeerUp` notice for the receiver). Frames and acks
//!   from a dead epoch are discarded, so stragglers delayed across a
//!   crash can never pollute the reborn stream.
//! * **Failure detection.** Consecutive retransmission timeouts with no
//!   ack make the peer a *suspect* (the only signal a silent link
//!   partition leaves): a `Suspect` trace record, which the watchdog's
//!   per-node dump shows; any frame from the peer resets the count. Crashes
//!   additionally produce deterministic kernel `PeerDown`/`PeerUp`
//!   notices (see [`crate::kernel::FaultNotice`]), on which the
//!   transport drops retransmission state for the dead peer — a crashed
//!   node is not coming back for this epoch, and resending into the
//!   void forever would turn every crash into a livelock.
//!
//! Everything runs inside the deterministic event kernel, so a faulty
//! run is bit-reproducible per seed, and with [`FaultPlan`] disabled the
//! wrapper is never needed at all.
//!
//! The transport is also safe under the kernel's lookahead windows:
//! retransmission timers are ordinary [`Ctx::set_timer`] events on the
//! owning node — node-local, ordered by the heap like any other event —
//! so only real frames are ever staged for admission, and every frame
//! pays at least the cost model's `min_net_delay`, which is exactly the
//! bound the window is derived from. Retransmission therefore needs no
//! special-casing at window boundaries.
//!
//! Delivery guarantees under *crash* faults are necessarily weaker:
//! a crash deliberately loses volatile state, so frames buffered at or
//! addressed to the crashed node are gone, and after a recovery both
//! directions of every adjacent link restart from sequence 1 in a new
//! epoch. Protocols that must survive crashes (see
//! `dsm-proto`'s `scabd`) are written against that weaker contract;
//! partitions, by contrast, lose no state — the retransmission machinery
//! rides them out transparently.
//!
//! Timer tokens: the transport reserves tokens with bit 63 set
//! ([`REL_TIMER_BIT`]; its ack timers set bit 62 as well); wrapped
//! behaviors must keep bit 63 clear (checked with a debug assertion).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::kernel::{FaultNotice, NodeBehavior, OpOutcome};
use crate::model::CostModel;
use crate::msg::{NodeId, Payload};
use crate::stats::KindId;
use crate::time::{Dur, SimTime};
use crate::trace::{Kind, Rec};
use crate::transport::{Ctx, Transport};
use crate::wire_enum;

/// Timer tokens with this bit set belong to the reliable transport; the
/// low bits then hold the peer's node index.
pub const REL_TIMER_BIT: u64 = 1 << 63;

/// Set besides [`REL_TIMER_BIT`] on a link's ack timer, not its
/// retransmission timer.
const ACK_TIMER_BIT: u64 = 1 << 62;

/// Modeled bytes of transport framing added to each `Data` frame
/// (sequence number + cumulative ack + SACK bitmap + epoch pair).
const REL_HEADER_BYTES: usize = 32;

/// Modeled bytes of a standalone ack (cumulative ack + SACK bitmap +
/// epoch).
const ACK_BYTES: usize = 24;

/// Statistics slot for standalone acks (transport range 48–55).
const ACK_KIND: KindId = KindId(48);

/// The simulated network's lower clamp for the adaptive RTO
/// ([`RelConfig::rto_min`] of [`RelConfig::from_model`]): below this,
/// scheduling granularity and piggyback timing dominate and spurious
/// retransmits climb without buying latency.
const RTO_FLOOR: Dur = Dur::micros(50);

/// The longest a standalone ack waits for a reverse `Data` frame to
/// carry it: below [`RTO_FLOOR`], and added to every measured RTO.
const ACK_DELAY_MAX: Dur = Dur::micros(40);

wire_enum! {
    /// Transport frame wrapping an inner payload `M`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RelMsg<M> {
        /// A sequenced inner message plus a piggybacked cumulative ack and
        /// SACK bitmap. `seq == 0` marks unsequenced node-local loopback.
        /// `epoch` is the sender's stream epoch for this link direction;
        /// `ack_epoch` is the epoch of the peer's stream the piggybacked
        /// ack refers to.
        Data {
            seq: u64,
            ack: u64,
            sack: u64,
            epoch: u32,
            ack_epoch: u32,
            payload: M,
        } = 0,
        /// Standalone cumulative ack + SACK bitmap (nothing to piggyback
        /// on). `ack_epoch` is the epoch of the stream being acked.
        Ack { ack: u64, sack: u64, ack_epoch: u32 } = 1,
    }
}

impl<M: Payload> Payload for RelMsg<M> {
    fn wire_bytes(&self) -> usize {
        match self {
            RelMsg::Data { payload, .. } => payload.wire_bytes() + REL_HEADER_BYTES,
            RelMsg::Ack { .. } => ACK_BYTES,
        }
    }

    fn kind(&self) -> &'static str {
        // Data frames keep the inner kind so traffic tables stay
        // comparable with unwrapped runs; only standalone acks show up
        // as a new class.
        match self {
            RelMsg::Data { payload, .. } => payload.kind(),
            RelMsg::Ack { .. } => "RelAck",
        }
    }

    fn kind_id(&self) -> KindId {
        match self {
            RelMsg::Data { payload, .. } => payload.kind_id(),
            RelMsg::Ack { .. } => ACK_KIND,
        }
    }
}

/// Retransmission timing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RelConfig {
    /// Retransmission timeout before the first RTT sample lands.
    pub rto_initial: Dur,
    /// Floor under every RTO computed from RTT samples (TCP's RTO_min,
    /// RFC 6298 §2.4): a late ack that a busy host merely held back
    /// must not look like a loss.
    pub rto_min: Dur,
    /// Backoff cap: the timeout doubles per retry up to this value.
    pub rto_max: Dur,
    /// Consecutive retransmission timeouts on a link before the peer is
    /// suspected.
    pub suspect_after: u32,
}

impl RelConfig {
    /// Derive a timeout from the cost model: a handful of worst-case
    /// page-sized hops plus a queueing allowance proportional to the
    /// node count (a barrier storm serializes through one receiver).
    /// Spurious retransmits only waste messages — dedup keeps them
    /// harmless — so the estimate need not be tight; the per-link EWMA
    /// replaces it as soon as acks flow.
    pub fn from_model(model: &CostModel, nnodes: u32) -> Self {
        let per_hop = model.delivery_delay(4096);
        let queueing = (model.send_overhead + model.recv_overhead) * nnodes as u64;
        let rto_initial = (per_hop * 4 + queueing * 2).max(Dur::micros(100));
        RelConfig {
            rto_initial,
            rto_min: RTO_FLOOR,
            rto_max: rto_initial * 32,
            suspect_after: 3,
        }
    }
}

/// One buffered unacked frame on the retransmit queue.
struct Frame<M> {
    seq: u64,
    msg: M,
    /// Virtual time of the *original* transmission (RTT sampling).
    sent: SimTime,
    /// A retransmission timeout found it unacked, so its ack time
    /// measures the recovery, not the RTT: Karn's rule excludes it from
    /// RTT sampling, whether it was resent or held behind the hole.
    timed_out: bool,
    /// Selectively acknowledged: the receiver holds it in its reorder
    /// buffer, so timer-driven resends skip it.
    sacked: bool,
}

/// Per-peer link state (one per remote node, both directions).
struct LinkState<M> {
    /// Next sequence number to assign on send (first real seq is 1).
    next_seq: u64,
    /// Highest contiguously delivered seq received from the peer — the
    /// cumulative ack we advertise.
    delivered: u64,
    /// Highest cumulative ack received from the peer.
    acked: u64,
    /// Sent but unacked frames, ascending seq (the retransmit queue).
    outstanding: VecDeque<Frame<M>>,
    /// Received ahead of order: seq → payload, seq > delivered + 1.
    reorder: BTreeMap<u64, M>,
    /// A retransmit timer event is in flight for this link.
    timer_armed: bool,
    /// Earliest virtual time a retransmission is justified. Sends (when
    /// the queue was empty) and acks (when frames remain) push this
    /// forward; a timer firing earlier simply re-arms — it was set for
    /// a frame that has since been acked.
    deadline: SimTime,
    /// Current retransmission timeout (adaptive; exponential backoff
    /// between acks).
    rto: Dur,
    /// Jacobson estimator state in nanoseconds: (srtt, rttvar), absent
    /// until the first valid sample.
    rtt: Option<(u64, u64)>,
    /// Consecutive timer-driven retransmissions with no intervening
    /// ack — the failure-detector counter.
    timeouts: u32,
    /// Epoch of our send stream on this link; bumped on every stream
    /// restart so stale frames and acks are recognizable.
    epoch: u32,
    /// Highest epoch observed on the peer's send stream.
    peer_epoch: u32,
    /// Some delivery from the peer has not been acked by any frame to it.
    ack_due: bool,
    /// An ack timer event is in flight for this link.
    ack_timer_armed: bool,
}

impl<M> LinkState<M> {
    fn new(rto: Dur) -> Self {
        LinkState {
            next_seq: 1,
            delivered: 0,
            acked: 0,
            outstanding: VecDeque::new(),
            reorder: BTreeMap::new(),
            timer_armed: false,
            deadline: SimTime::ZERO,
            rto,
            rtt: None,
            timeouts: 0,
            epoch: 0,
            peer_epoch: 0,
            ack_due: false,
            ack_timer_armed: false,
        }
    }

    /// Restart both directions of the stream, preserving epochs;
    /// `bump_epoch` additionally retires our send epoch so frames and
    /// acks referring to the old stream are discarded everywhere.
    fn reset(&mut self, rto0: Dur, bump_epoch: bool) {
        let epoch = self.epoch + bump_epoch as u32;
        let peer_epoch = self.peer_epoch;
        *self = LinkState::new(rto0);
        self.epoch = epoch;
        self.peer_epoch = peer_epoch;
    }

    /// SACK bitmap to advertise: bit k set ⇔ seq `delivered + 2 + k` is
    /// held in the reorder buffer (`delivered + 1` is by definition the
    /// missing one).
    fn sack_bitmap(&self) -> u64 {
        let base = self.delivered + 2;
        let mut bm = 0u64;
        for &s in self.reorder.keys() {
            if s < base {
                continue;
            }
            let k = s - base;
            if k >= 64 {
                break;
            }
            bm |= 1 << k;
        }
        bm
    }

    /// A `Data` frame of `payload` at `seq`; like every frame to the
    /// peer, it acks everything delivered so far.
    fn data(&mut self, seq: u64, payload: M) -> RelMsg<M> {
        self.ack_due = false;
        RelMsg::Data {
            seq,
            ack: self.delivered,
            sack: self.sack_bitmap(),
            epoch: self.epoch,
            ack_epoch: self.peer_epoch,
            payload,
        }
    }

    /// A standalone ack of everything delivered so far.
    fn ack(&mut self) -> RelMsg<M> {
        self.ack_due = false;
        RelMsg::Ack {
            ack: self.delivered,
            sack: self.sack_bitmap(),
            ack_epoch: self.peer_epoch,
        }
    }

    /// How long an owed ack waits for a reverse frame: half the smoothed
    /// RTT, at most [`ACK_DELAY_MAX`] (all of it before the first sample).
    fn ack_delay(&self) -> Dur {
        self.rtt.map_or(ACK_DELAY_MAX, |(srtt, _)| {
            Dur::nanos(srtt / 2).min(ACK_DELAY_MAX)
        })
    }
}

/// Reliable transport wrapper: `Reliable<N>` is itself a
/// [`NodeBehavior`] whose wire messages are [`RelMsg<N::Msg>`], so the
/// kernel (and its fault injector) is oblivious to what rides inside.
/// Ops, replies, and the inner behavior's logic are untouched.
pub struct Reliable<N: NodeBehavior> {
    inner: N,
    cfg: RelConfig,
    links: Vec<LinkState<N::Msg>>,
    /// Peers the kernel has *confirmed* crashed (`PeerDown`, not mere
    /// silence). Frames to them are sent fire-and-forget — they cannot
    /// be acked, and queuing them would retransmit into the void until
    /// the end of the run.
    down: BTreeSet<u32>,
}

impl<N: NodeBehavior> Reliable<N> {
    /// Wrap `inner` for a run with `nnodes` nodes.
    pub fn new(inner: N, nnodes: u32, cfg: RelConfig) -> Self {
        let links = (0..nnodes)
            .map(|_| LinkState::new(cfg.rto_initial))
            .collect();
        Reliable {
            inner,
            cfg,
            links,
            down: BTreeSet::new(),
        }
    }

    /// The timing this transport runs with.
    pub fn config(&self) -> &RelConfig {
        &self.cfg
    }

    /// The wrapped behavior.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Apply a cumulative ack + SACK bitmap from `peer`. Acks for a
    /// stale epoch of our stream are ignored wholesale; valid acks
    /// clear the suspicion counter, advance the retransmit queue, and
    /// feed the RTT estimator (Karn's rule: only never-retransmitted
    /// frames produce samples).
    fn process_ack(&mut self, peer: NodeId, ack: u64, sack: u64, ack_epoch: u32, now: SimTime) {
        let (rto_min, rto_max) = (self.cfg.rto_min, self.cfg.rto_max);
        let link = &mut self.links[peer.index()];
        if ack_epoch != link.epoch {
            return;
        }
        link.timeouts = 0;
        // Selective marks relative to this cumulative ack: bit k covers
        // seq `ack + 2 + k`.
        if sack != 0 {
            for f in link.outstanding.iter_mut() {
                if f.seq >= ack + 2 && f.seq - ack - 2 < 64 && (sack >> (f.seq - ack - 2)) & 1 == 1
                {
                    f.sacked = true;
                }
            }
        }
        if ack <= link.acked {
            return;
        }
        link.acked = ack;
        let mut sampled = false;
        while link.outstanding.front().is_some_and(|f| f.seq <= ack) {
            let f = link.outstanding.pop_front().expect("checked front");
            if !f.timed_out {
                // Jacobson/Karn EWMA in integer nanoseconds.
                let sample = now.since(f.sent).0;
                let (srtt, rttvar) = match link.rtt {
                    None => (sample, sample / 2),
                    Some((srtt, rttvar)) => {
                        let dev = srtt.abs_diff(sample);
                        ((7 * srtt + sample) / 8, (3 * rttvar + dev) / 4)
                    }
                };
                link.rtt = Some((srtt, rttvar));
                sampled = true;
            }
        }
        if sampled {
            let (srtt, rttvar) = link.rtt.expect("sampled above");
            link.rto = (Dur::nanos(srtt + 4 * rttvar) + ACK_DELAY_MAX)
                .max(rto_min)
                .min(rto_max);
        } else {
            // No fresh sample: a backed-off RTO stands until one lands
            // (Karn; RFC 6298 §5), within the floor and the cap.
            link.rto = link.rto.max(rto_min).min(rto_max);
        }
        // Restart the timeout for whatever is still unacked.
        link.deadline = now + link.rto;
    }

    /// Run `hook` on the inner behavior, its sends framed by this
    /// transport.
    fn inner_call<R>(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        hook: impl FnOnce(&mut N, &mut Ctx<'_, N>) -> R,
    ) -> R {
        let Reliable {
            inner, links, down, ..
        } = self;
        let mut port: RelPort<'_, N> = RelPort {
            outer: ctx.port,
            links,
            down,
            me: ctx.node,
        };
        hook(
            inner,
            &mut Ctx {
                port: &mut port,
                node: ctx.node,
            },
        )
    }

    /// Take in a sequenced `Data` frame from `from`: deliver what it
    /// makes contiguous, in seq order, and ack it at once or when the
    /// link's ack timer fires, unless reverse traffic carries the ack.
    fn on_data(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, seq: u64, payload: N::Msg) {
        let link = &mut self.links[from.index()];
        if seq <= link.delivered {
            // Duplicate (network dup or retransmit after a lost ack):
            // discard, but re-ack at once so the sender can stop
            // retransmitting.
            let ack = link.ack();
            ctx.port.send_from(ctx.node, from, ack);
            return;
        }
        link.reorder.insert(seq, payload);
        link.ack_due = true;
        // The watermark moves before each inner call, so a reply to the
        // peer from the handler already acks the delivery.
        loop {
            let link = &mut self.links[from.index()];
            let Some(p) = link.reorder.remove(&(link.delivered + 1)) else {
                break;
            };
            link.delivered += 1;
            link.ack_due = true;
            self.inner_call(ctx, |inner, ictx| inner.on_message(ictx, from, p));
        }
        // Unless a frame to the peer carried the ack.
        let link = &mut self.links[from.index()];
        if link.ack_due && !link.reorder.is_empty() {
            // A hole: the SACK bitmap goes out now.
            let ack = link.ack();
            ctx.port.send_from(ctx.node, from, ack);
        } else if link.ack_due && !link.ack_timer_armed {
            link.ack_timer_armed = true;
            let token = REL_TIMER_BIT | ACK_TIMER_BIT | from.index() as u64;
            ctx.port.set_timer_on(ctx.node, link.ack_delay(), token);
        }
    }
}

impl<N: NodeBehavior> NodeBehavior for Reliable<N> {
    type Msg = RelMsg<N::Msg>;
    type Op = N::Op;
    type Reply = N::Reply;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.inner_call(ctx, |inner, ictx| inner.on_start(ictx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
        let me = ctx.node;
        if from != me {
            // Any frame from the peer is proof of life.
            self.links[from.index()].timeouts = 0;
        }
        match msg {
            RelMsg::Ack {
                ack,
                sack,
                ack_epoch,
            } => self.process_ack(from, ack, sack, ack_epoch, ctx.now()),
            // Seq 0 from anyone else is malformed or forged: it would
            // skip both the dedup and the epoch check, so drop it.
            RelMsg::Data { seq: 0, .. } if from != me => {}
            RelMsg::Data {
                seq: 0, payload, ..
            } => {
                // Unsequenced loopback: never crossed the lossy wire.
                self.inner_call(ctx, |inner, ictx| inner.on_message(ictx, from, payload));
            }
            RelMsg::Data {
                seq,
                ack,
                sack,
                epoch,
                ack_epoch,
                payload,
            } => {
                let link = &mut self.links[from.index()];
                if epoch < link.peer_epoch {
                    // Straggler from a dead epoch of the peer's stream
                    // (delayed across its crash): discard.
                    return;
                }
                if epoch > link.peer_epoch {
                    // The peer restarted its stream: our receive
                    // watermark and reorder buffer refer to the old
                    // epoch. Restart the receive side; our own send
                    // epoch is untouched.
                    link.delivered = 0;
                    link.reorder.clear();
                    link.peer_epoch = epoch;
                }
                self.process_ack(from, ack, sack, ack_epoch, ctx.now());
                self.on_data(ctx, from, seq, payload);
            }
        }
    }

    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, op: Self::Op) -> OpOutcome<Self::Reply> {
        self.inner_call(ctx, |inner, ictx| inner.on_op(ictx, op))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, token: u64) {
        if token & REL_TIMER_BIT == 0 {
            self.inner_call(ctx, |inner, ictx| inner.on_timer(ictx, token));
            return;
        }
        let me = ctx.node;
        let peer = (token & !(REL_TIMER_BIT | ACK_TIMER_BIT)) as usize;
        let now = ctx.now();
        let rto_max = self.cfg.rto_max;
        let suspect_after = self.cfg.suspect_after;
        let link = &mut self.links[peer];
        if token & ACK_TIMER_BIT != 0 {
            link.ack_timer_armed = false;
            if link.ack_due {
                let ack = link.ack();
                ctx.port.send_from(me, NodeId(peer as u32), ack);
            }
            return;
        }
        link.timer_armed = false;
        if link.outstanding.is_empty() {
            // Everything got acked before the timer fired; the backoff
            // was already reset by `process_ack`.
            return;
        }
        if now < link.deadline {
            // The timer was set for a frame that has since been acked;
            // the unacked frames are newer. Re-arm for their deadline
            // instead of retransmitting early.
            link.timer_armed = true;
            let wait = link.deadline.since(now);
            ctx.port.set_timer_on(me, wait, token);
            return;
        }
        // Selective retransmit: resend only the unacked frames the
        // receiver has not SACKed, with a fresh piggybacked ack, then
        // back off and re-arm. Karn's rule: mark every unacked frame so
        // its ack produces no RTT sample.
        let mut resend: Vec<(u64, N::Msg)> = Vec::new();
        for f in link.outstanding.iter_mut() {
            f.timed_out = true;
            if !f.sacked {
                resend.push((f.seq, f.msg.clone()));
            }
        }
        let frames: Vec<RelMsg<N::Msg>> = resend
            .into_iter()
            .map(|(seq, msg)| link.data(seq, msg))
            .collect();
        let rto = std::cmp::min(link.rto * 2, rto_max);
        link.rto = rto;
        link.deadline = now + rto;
        link.timer_armed = true;
        link.timeouts += 1;
        if link.timeouts >= suspect_after {
            // Repeated silence: a perfect network would have acked by
            // now. Either the peer is dead or the link is cut.
            ctx.rec(Kind::Suspect, peer as u64, KindId(0), 0);
        }
        for frame in frames {
            let bytes = frame.wire_bytes() as u64;
            ctx.rec(Kind::Retransmit, peer as u64, frame.kind_id(), bytes);
            ctx.port.send_from(me, NodeId(peer as u32), frame);
        }
        ctx.port.set_timer_on(me, rto, token);
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_, Self>, notice: FaultNotice) {
        let rto0 = self.cfg.rto_initial;
        match notice {
            FaultNotice::Crashed => {
                // Volatile transport state dies with the node. Epochs
                // survive (a boot counter on stable storage); the bump
                // happens at recovery.
                for link in &mut self.links {
                    link.reset(rto0, false);
                }
                self.down.clear();
            }
            FaultNotice::Recovered => {
                // Fresh streams in a fresh epoch: anything the old
                // incarnation sent or was owed is void.
                for link in &mut self.links {
                    link.reset(rto0, true);
                }
            }
            FaultNotice::PeerDown { peer: p, .. } => {
                // Stop retransmitting into the void — with the peer's
                // volatile state gone, go-back-N can never complete and
                // would keep every crash run alive forever. The inner
                // protocol hears of the crash in its own `on_fault` and
                // must handle the loss at its own level. Nor is the peer
                // owed an ack.
                let link = &mut self.links[p.index()];
                link.outstanding.clear();
                link.reorder.clear();
                link.timeouts = 0;
                link.ack_due = false;
                self.down.insert(p.0);
                ctx.rec(Kind::Suspect, p.0.into(), KindId(0), 0);
            }
            FaultNotice::PeerUp(p) => {
                // The peer rebooted: restart our send stream to it in a
                // new epoch (our old frames/acks are stale to it, and
                // vice versa).
                self.links[p.index()].reset(rto0, true);
                self.down.remove(&p.0);
            }
        }
        self.inner_call(ctx, |inner, ictx| inner.on_fault(ictx, notice));
    }

    fn crashed_reply(&self) -> Option<Self::Reply> {
        self.inner.crashed_reply()
    }
}

/// The [`Transport`] the inner behavior's `Ctx` talks to: translates each
/// inner send into a sequenced, buffered, timer-guarded `Data` frame on
/// the outer (lossy) port, and passes everything else straight through.
struct RelPort<'a, N: NodeBehavior> {
    outer: &'a mut (dyn Transport<RelMsg<N::Msg>, N::Reply> + 'a),
    links: &'a mut [LinkState<N::Msg>],
    down: &'a BTreeSet<u32>,
    me: NodeId,
}

impl<'a, N: NodeBehavior> Transport<N::Msg, N::Reply> for RelPort<'a, N> {
    fn now(&self) -> SimTime {
        self.outer.now()
    }

    fn nnodes(&self) -> u32 {
        self.outer.nnodes()
    }

    fn model(&self) -> &CostModel {
        self.outer.model()
    }

    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: N::Msg) {
        debug_assert_eq!(src, self.me, "RelPort send from a foreign node");
        if dst == src {
            // Loopback never crosses the lossy wire (the kernel exempts
            // self-sends from faults): no seq, no buffering, no timer.
            self.outer.send_from(
                src,
                dst,
                RelMsg::Data {
                    seq: 0,
                    ack: 0,
                    sack: 0,
                    epoch: 0,
                    ack_epoch: 0,
                    payload: msg,
                },
            );
            return;
        }
        let now = self.outer.now();
        let link = &mut self.links[dst.index()];
        let seq = link.next_seq;
        link.next_seq += 1;
        if self.down.contains(&dst.0) {
            // The kernel confirmed this peer crashed: an ack can never
            // come back, so ship the frame once (the kernel drops and
            // counts it) without consuming retransmit state. The link
            // restarts in a fresh epoch at `PeerUp` anyway.
            let frame = link.data(seq, msg);
            self.outer.send_from(src, dst, frame);
            return;
        }
        if link.outstanding.is_empty() {
            // First unacked frame on this link: its timeout starts now.
            link.deadline = now + link.rto;
        }
        link.outstanding.push_back(Frame {
            seq,
            msg: msg.clone(),
            sent: now,
            timed_out: false,
            sacked: false,
        });
        let arm = !link.timer_armed;
        link.timer_armed = true;
        let rto = link.rto;
        let frame = link.data(seq, msg);
        self.outer.send_from(src, dst, frame);
        if arm {
            self.outer
                .set_timer_on(self.me, rto, REL_TIMER_BIT | dst.index() as u64);
        }
    }

    fn complete_op_after(&mut self, node: NodeId, reply: N::Reply, delay: Dur) {
        self.outer.complete_op_after(node, reply, delay);
    }

    fn set_timer_on(&mut self, node: NodeId, delay: Dur, token: u64) {
        debug_assert!(
            token & REL_TIMER_BIT == 0,
            "inner timer tokens must keep bit 63 clear (reserved by Reliable)"
        );
        self.outer.set_timer_on(node, delay, token);
    }

    fn rec(&mut self, r: Rec) {
        self.outer.rec(r);
    }
}

/// Convenience: wrap a whole fleet of behaviors for a run over `model`.
/// Uses [`RelConfig::from_model`] timeouts.
pub fn wrap_fleet<N: NodeBehavior>(nodes: Vec<N>, model: &CostModel) -> Vec<Reliable<N>> {
    let nnodes = nodes.len() as u32;
    let cfg = RelConfig::from_model(model, nnodes);
    nodes
        .into_iter()
        .map(|n| Reliable::new(n, nnodes, cfg.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{AppHandle, Sim};
    use crate::model::CostModel;
    use crate::model::FaultPlan;

    /// Node 0 is an accumulating server; other nodes submit `Add(x)`
    /// ops that must each be applied exactly once, in submission order
    /// per client. The server keeps one running total *per client* and
    /// echoes it, so each client's reply sequence is its own prefix
    /// sums — independent of cross-client interleaving (which faults
    /// may legally perturb) but sensitive to any loss (missing add),
    /// duplication (double add), or per-link reorder on its own link.
    #[derive(Clone)]
    enum AddMsg {
        Add(u64),
        Total(u64),
    }
    impl Payload for AddMsg {
        fn wire_bytes(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            match self {
                AddMsg::Add(_) => "Add",
                AddMsg::Total(_) => "Total",
            }
        }
        fn kind_id(&self) -> KindId {
            match self {
                AddMsg::Add(_) => KindId(40),
                AddMsg::Total(_) => KindId(41),
            }
        }
    }

    #[derive(Default)]
    struct AddNode {
        totals: std::collections::BTreeMap<u32, u64>,
    }
    impl NodeBehavior for AddNode {
        type Msg = AddMsg;
        type Op = u64;
        type Reply = u64;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: AddMsg) {
            match msg {
                AddMsg::Add(x) => {
                    let t = self.totals.entry(from.0).or_default();
                    *t += x;
                    let t = *t;
                    ctx.send(from, AddMsg::Total(t));
                }
                AddMsg::Total(t) => ctx.complete_op(t),
            }
        }

        fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, x: u64) -> OpOutcome<u64> {
            ctx.send(NodeId(0), AddMsg::Add(x));
            OpOutcome::Blocked
        }
    }

    fn client(h: &AppHandle<u64, u64>) -> Vec<u64> {
        (1..=20).map(|x| h.op(x)).collect()
    }

    fn run_reliable(model: CostModel) -> (Vec<Vec<u64>>, crate::stats::NetStats) {
        let plain = vec![AddNode::default(), AddNode::default(), AddNode::default()];
        let nodes = wrap_fleet(plain, &model);
        let sim = Sim::new(nodes, model).max_events(10_000_000);
        let res = sim.run(vec![|_h: &AppHandle<u64, u64>| Vec::new(), client, client]);
        (res.results, res.stats)
    }

    fn lossless_results() -> Vec<Vec<u64>> {
        let sim = Sim::new(
            vec![AddNode::default(), AddNode::default(), AddNode::default()],
            CostModel::lan_1992(),
        );
        sim.run(vec![|_h: &AppHandle<u64, u64>| Vec::new(), client, client])
            .results
    }

    #[test]
    fn wrapped_lossless_run_matches_plain_results() {
        let (wrapped, stats) = run_reliable(CostModel::lan_1992());
        assert_eq!(wrapped, lossless_results());
        assert_eq!(stats.total_dropped(), 0);
        assert_eq!(stats.total_retransmits(), 0);
    }

    #[test]
    fn survives_heavy_drop_and_duplication_with_identical_results() {
        let model = CostModel::lan_1992().with_faults(FaultPlan::lossy(0.25, 0.15, 99));
        let (wrapped, stats) = run_reliable(model);
        assert_eq!(wrapped, lossless_results());
        assert!(stats.total_dropped() > 0, "fault plan never fired");
        assert!(
            stats.total_retransmits() > 0,
            "loss recovered without retransmits?"
        );
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let model = || CostModel::lan_1992().with_faults(FaultPlan::lossy(0.2, 0.1, 7));
        let a = run_reliable(model());
        let b = run_reliable(model());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        // A different seed gives a different fault pattern (counters
        // almost surely differ at these rates and message counts).
        let c = run_reliable(CostModel::lan_1992().with_faults(FaultPlan::lossy(0.2, 0.1, 8)));
        assert_eq!(a.0, c.0); // results still correct...
        assert_ne!(
            (a.1.total_dropped(), a.1.total_duplicated()),
            (c.1.total_dropped(), c.1.total_duplicated()),
            "different seeds produced identical fault patterns"
        );
    }

    #[test]
    fn survives_delay_spikes_that_reorder_links() {
        let model = CostModel::lan_1992()
            .with_faults(FaultPlan::lossy(0.1, 0.05, 3).with_spikes(0.3, Dur::millis(20)));
        let (wrapped, _stats) = run_reliable(model);
        assert_eq!(wrapped, lossless_results());
    }

    /// A client wedged behind a link that stays cut: the watchdog's
    /// dump says what it waits on, that it retransmits to the server,
    /// and that it suspects the server.
    #[test]
    fn a_wedged_runs_dump_names_the_peer_retransmitted_to_and_the_suspect() {
        let forever = (SimTime::ZERO, SimTime(u64::MAX));
        let plan = FaultPlan::NONE.with_partition(vec![0], vec![1], forever.0, forever.1);
        let model = CostModel::lan_1992().with_faults(plan);
        let nodes = wrap_fleet(vec![AddNode::default(), AddNode::default()], &model);
        let sim = Sim::new(nodes, model);
        let idle = |_h: &AppHandle<u64, u64>| Vec::new();
        let run = std::panic::AssertUnwindSafe(|| sim.run(vec![idle, client]));
        let err = std::panic::catch_unwind(run).expect_err("the watchdog fires");
        let dump = err.downcast_ref::<String>().expect("a failure report");
        assert!(
            dump.contains("n1 [blocked] op c1 open since 0.000ms"),
            "{dump}"
        );
        assert!(dump.contains("c1 Retransmit Add to n0"), "{dump}");
        assert!(dump.contains("c1 Suspect n0"), "{dump}");
    }

    #[test]
    fn rtt_samples_tighten_the_rto() {
        let model = CostModel::lan_1992();
        let cfg = RelConfig::from_model(&model, 3);
        let rto0 = cfg.rto_initial;
        let mut node = Reliable::new(AddNode::default(), 3, cfg);
        // One frame sent at t=0, acked 80µs later in the same epoch:
        // rto becomes srtt + 4·rttvar + the most a peer holds an ack
        // back = 80 + 4·40 + 40 = 280µs.
        node.links[1].outstanding.push_back(Frame {
            seq: 1,
            msg: AddMsg::Add(1),
            sent: SimTime::ZERO,
            timed_out: false,
            sacked: false,
        });
        node.process_ack(NodeId(1), 1, 0, 0, SimTime::ZERO + Dur::micros(80));
        assert_eq!(node.links[1].rtt.map(|(srtt, _)| srtt), Some(80_000));
        let rto = node.links[1].rto;
        assert_eq!(rto, Dur::micros(280));
        assert!(rto < rto0, "measured RTO should beat the model guess");
        // A retransmitted frame must not produce a sample (Karn).
        node.links[1].outstanding.push_back(Frame {
            seq: 2,
            msg: AddMsg::Add(2),
            sent: SimTime::ZERO,
            timed_out: true,
            sacked: false,
        });
        node.process_ack(NodeId(1), 2, 0, 0, SimTime::ZERO + Dur::millis(90));
        assert_eq!(node.links[1].rtt.map(|(srtt, _)| srtt), Some(80_000));
    }

    /// A transport that keeps what node 1 sends and the timers it sets.
    struct Tap {
        model: CostModel,
        now: SimTime,
        sent: Vec<RelMsg<AddMsg>>,
        timers: Vec<u64>,
    }

    impl Transport<RelMsg<AddMsg>, u64> for Tap {
        fn now(&self) -> SimTime {
            self.now
        }
        fn nnodes(&self) -> u32 {
            2
        }
        fn model(&self) -> &CostModel {
            &self.model
        }
        fn send_from(&mut self, _: NodeId, _: NodeId, msg: RelMsg<AddMsg>) {
            self.sent.push(msg);
        }
        fn complete_op_after(&mut self, _: NodeId, _: u64, _: Dur) {}
        fn set_timer_on(&mut self, _: NodeId, _: Dur, token: u64) {
            self.timers.push(token);
        }
        fn rec(&mut self, _: Rec) {}
    }

    /// Node 1 of two, a client, with a tap for its transport.
    fn tapped_client() -> (Reliable<AddNode>, Tap) {
        let model = CostModel::lan_1992();
        let cfg = RelConfig::from_model(&model, 2);
        let tap = Tap {
            model,
            now: SimTime::ZERO,
            sent: Vec::new(),
            timers: Vec::new(),
        };
        (Reliable::new(AddNode::default(), 2, cfg), tap)
    }

    /// Run `hook` on node 1 over `tap`.
    fn on_node_1<R>(
        node: &mut Reliable<AddNode>,
        tap: &mut Tap,
        hook: impl FnOnce(&mut Reliable<AddNode>, &mut Ctx<'_, Reliable<AddNode>>) -> R,
    ) -> R {
        hook(
            node,
            &mut Ctx {
                port: tap,
                node: NodeId(1),
            },
        )
    }

    /// Node 0's frame `seq`: a total, to which the client sends nothing
    /// back.
    fn total(seq: u64) -> RelMsg<AddMsg> {
        RelMsg::Data {
            seq,
            ack: 0,
            sack: 0,
            epoch: 0,
            ack_epoch: 0,
            payload: AddMsg::Total(seq),
        }
    }

    #[test]
    fn a_data_frame_before_the_ack_timer_carries_the_ack() {
        let (mut node, mut tap) = tapped_client();
        on_node_1(&mut node, &mut tap, |n, c| {
            n.on_message(c, NodeId(0), total(1))
        });
        assert!(tap.sent.is_empty(), "the ack waits");
        let [timer] = tap.timers[..] else {
            panic!("one ack timer: {:?}", tap.timers)
        };
        on_node_1(&mut node, &mut tap, |n, c| n.on_op(c, 7));
        on_node_1(&mut node, &mut tap, |n, c| n.on_timer(c, timer));
        assert!(
            matches!(tap.sent[..], [RelMsg::Data { seq: 1, ack: 1, .. }]),
            "the request acks the total, and the timer sends nothing"
        );
    }

    #[test]
    fn a_lone_delivery_is_acked_when_the_ack_timer_fires() {
        let (mut node, mut tap) = tapped_client();
        on_node_1(&mut node, &mut tap, |n, c| {
            n.on_message(c, NodeId(0), total(1))
        });
        on_node_1(&mut node, &mut tap, |n, c| {
            n.on_message(c, NodeId(0), total(2))
        });
        let [timer] = tap.timers[..] else {
            panic!("one ack timer per link: {:?}", tap.timers)
        };
        assert!(tap.sent.is_empty());
        on_node_1(&mut node, &mut tap, |n, c| n.on_timer(c, timer));
        assert!(
            matches!(
                tap.sent[..],
                [RelMsg::Ack {
                    ack: 2,
                    sack: 0,
                    ..
                }]
            ),
            "one ack of both totals"
        );
    }

    #[test]
    fn a_duplicate_or_a_hole_is_acked_at_once() {
        let (mut node, mut tap) = tapped_client();
        on_node_1(&mut node, &mut tap, |n, c| {
            n.on_message(c, NodeId(0), total(1))
        });
        on_node_1(&mut node, &mut tap, |n, c| {
            n.on_message(c, NodeId(0), total(1))
        });
        assert!(matches!(tap.sent[..], [RelMsg::Ack { ack: 1, .. }]));
        // Frame 3 before 2: the SACK bitmap says 3 is held.
        on_node_1(&mut node, &mut tap, |n, c| {
            n.on_message(c, NodeId(0), total(3))
        });
        assert!(matches!(
            tap.sent[1..],
            [RelMsg::Ack {
                ack: 1,
                sack: 0b1,
                ..
            }]
        ));
        assert_eq!(tap.timers.len(), 1, "only the first delivery waited");
    }

    /// Frame 1 is lost and frame 2 waits behind the hole, SACKed: the
    /// cumulative ack of both comes only after the resend, so neither
    /// is an RTT sample.
    #[test]
    fn a_frame_acked_late_behind_a_hole_is_no_rtt_sample() {
        let (mut node, mut tap) = tapped_client();
        for x in [1, 2] {
            on_node_1(&mut node, &mut tap, |n, c| n.on_op(c, x));
        }
        let timer = tap.timers[0];
        node.process_ack(NodeId(0), 0, 0b1, 0, SimTime::ZERO + Dur::micros(80));
        tap.now = SimTime::ZERO + node.links[0].rto;
        on_node_1(&mut node, &mut tap, |n, c| n.on_timer(c, timer));
        assert!(matches!(tap.sent[2..], [RelMsg::Data { seq: 1, .. }]));
        node.process_ack(NodeId(0), 2, 0, 0, tap.now + Dur::micros(80));
        assert!(node.links[0].outstanding.is_empty());
        assert_eq!(node.links[0].rtt.map(|(srtt, _)| srtt), None);
    }

    #[test]
    fn sack_bitmap_marks_reorder_buffer_holes() {
        let mut link: LinkState<AddMsg> = LinkState::new(Dur::micros(100));
        link.delivered = 4; // next expected: 5
        link.reorder.insert(6, AddMsg::Add(0));
        link.reorder.insert(7, AddMsg::Add(0));
        link.reorder.insert(9, AddMsg::Add(0));
        // base = 6: bit0=seq6, bit1=seq7, bit3=seq9.
        assert_eq!(link.sack_bitmap(), 0b1011);
    }

    #[test]
    fn inner_timers_pass_through_untouched() {
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
                KindId(42)
            }
        }
        struct TimerNode {
            fired: Option<u64>,
            parked: bool,
        }
        impl NodeBehavior for TimerNode {
            type Msg = NoMsg;
            type Op = ();
            type Reply = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
                ctx.set_timer(Dur::micros(5), 0x1234);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: NoMsg) {}
            fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<u64> {
                match self.fired {
                    Some(tok) => OpOutcome::Done(tok),
                    None => {
                        // Not yet: the timer handler completes it.
                        self.parked = true;
                        OpOutcome::Blocked
                    }
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, token: u64) {
                self.fired = Some(token);
                if self.parked {
                    ctx.complete_op(token);
                }
            }
        }
        let model = CostModel::lan_1992();
        let cfg = RelConfig::from_model(&model, 1);
        let sim = Sim::new(
            vec![Reliable::new(
                TimerNode {
                    fired: None,
                    parked: false,
                },
                1,
                cfg,
            )],
            model,
        );
        let res = sim.run(vec![|h: &AppHandle<(), u64>| h.op(())]);
        assert_eq!(res.results[0], 0x1234);
    }
}
