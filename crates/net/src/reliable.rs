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
//! * **Cumulative acks, piggybacked.** Every outgoing `Data` frame
//!   carries the highest contiguously delivered sequence number from
//!   that peer. A standalone [`RelMsg::Ack`] is sent only when
//!   processing inbound data produced no reverse traffic to piggyback
//!   on.
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
//!   with Karn's rule (no samples from retransmitted frames). The RTO
//!   is `srtt + 4·rttvar`, seeded from the cost-model guess before the
//!   first sample and doubled per retry up to a cap.
//! * **Stream epochs.** Each link direction carries an epoch number,
//!   bumped whenever the sender restarts the stream (its own crash
//!   recovery, or a `PeerUp` notice for the receiver). Frames and acks
//!   from a dead epoch are discarded, so stragglers delayed across a
//!   crash can never pollute the reborn stream.
//! * **Failure detection.** Consecutive retransmission timeouts with no
//!   ack put the peer on a *suspect list* (the only signal a silent
//!   link partition leaves); any frame from the peer clears it, and the
//!   watchdog's per-node dump names whoever is on it. Crashes
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
//! ([`REL_TIMER_BIT`]); wrapped behaviors must keep that bit clear
//! (checked with a debug assertion).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::kernel::{FaultNotice, NodeBehavior, OpOutcome};
use crate::model::CostModel;
use crate::msg::{NodeId, Payload};
use crate::stats::KindId;
use crate::time::{Dur, SimTime};
use crate::transport::{Ctx, Transport};
use crate::wire_enum;

/// Timer tokens with this bit set belong to the reliable transport; the
/// low bits then hold the peer's node index.
pub const REL_TIMER_BIT: u64 = 1 << 63;

/// Modeled bytes of transport framing added to each `Data` frame
/// (sequence number + cumulative ack + SACK bitmap + epoch pair).
const REL_HEADER_BYTES: usize = 32;

/// Modeled bytes of a standalone ack (cumulative ack + SACK bitmap +
/// epoch).
const ACK_BYTES: usize = 24;

/// Statistics slot for standalone acks (transport range 48–55).
const ACK_KIND: KindId = KindId(48);

/// Lower clamp for the adaptive RTO: below this, scheduling granularity
/// and piggyback timing dominate and spurious retransmits climb without
/// buying latency.
const RTO_FLOOR: Dur = Dur::micros(50);

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
    /// Backoff cap: the timeout doubles per retry up to this value.
    pub rto_max: Dur,
    /// Consecutive retransmission timeouts on a link before the peer
    /// joins the suspect list.
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
    /// Retransmitted at least once: Karn's rule excludes it from RTT
    /// sampling.
    rexmit: bool,
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
}

/// Reliable transport wrapper: `Reliable<N>` is itself a
/// [`NodeBehavior`] whose wire messages are [`RelMsg<N::Msg>`], so the
/// kernel (and its fault injector) is oblivious to what rides inside.
/// Ops, replies, and the inner behavior's logic are untouched.
pub struct Reliable<N: NodeBehavior> {
    inner: N,
    cfg: RelConfig,
    links: Vec<LinkState<N::Msg>>,
    /// Peers currently suspected of having failed (consecutive ack
    /// timeouts, or a kernel `PeerDown` notice); [`Self::describe`]
    /// names them.
    suspects: BTreeSet<u32>,
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
            suspects: BTreeSet::new(),
            down: BTreeSet::new(),
        }
    }

    /// The wrapped behavior.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Smoothed RTT estimate for the link to `peer` in nanoseconds, if
    /// at least one sample has landed (diagnostics / experiments).
    pub fn srtt_nanos(&self, peer: NodeId) -> Option<u64> {
        self.links[peer.index()].rtt.map(|(srtt, _)| srtt)
    }

    /// Apply a cumulative ack + SACK bitmap from `peer`. Acks for a
    /// stale epoch of our stream are ignored wholesale; valid acks
    /// clear the suspicion counter, advance the retransmit queue, and
    /// feed the RTT estimator (Karn's rule: only never-retransmitted
    /// frames produce samples).
    fn process_ack(&mut self, peer: NodeId, ack: u64, sack: u64, ack_epoch: u32, now: SimTime) {
        let rto_max = self.cfg.rto_max;
        let link = &mut self.links[peer.index()];
        if ack_epoch != link.epoch {
            return;
        }
        link.timeouts = 0;
        self.suspects.remove(&peer.0);
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
            if !f.rexmit {
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
            link.rto = Dur::nanos(srtt + 4 * rttvar).max(RTO_FLOOR).min(rto_max);
        } else {
            // No fresh sample, but the link proved itself alive: undo
            // the exponential backoff.
            link.rto = link.rto.max(RTO_FLOOR).min(rto_max);
        }
        // Restart the timeout for whatever is still unacked.
        link.deadline = now + link.rto;
    }
}

impl<N: NodeBehavior> NodeBehavior for Reliable<N> {
    type Msg = RelMsg<N::Msg>;
    type Op = N::Op;
    type Reply = N::Reply;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        let Reliable {
            inner, links, down, ..
        } = self;
        let mut port: RelPort<'_, N> = RelPort {
            outer: ctx.port,
            links,
            down,
            me: ctx.node,
            watch: None,
            watched_ack: None,
        };
        let mut ictx = Ctx::<N> {
            port: &mut port,
            node: ctx.node,
        };
        inner.on_start(&mut ictx);
    }

    fn describe(&self) -> String {
        let pending: Vec<String> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.outstanding.is_empty())
            .map(|(p, l)| format!("n{p}:{}", l.outstanding.len()))
            .collect();
        let inner = self.inner.describe();
        let inner = if inner.is_empty() {
            "-"
        } else {
            inner.as_str()
        };
        let mut out = if pending.is_empty() {
            format!("{inner} | rexmit-q empty")
        } else {
            format!("{inner} | rexmit-q [{}]", pending.join(" "))
        };
        if !self.suspects.is_empty() {
            let s: Vec<String> = self.suspects.iter().map(|p| format!("n{p}")).collect();
            out.push_str(&format!(" | suspects [{}]", s.join(" ")));
        }
        out
    }

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.inner.gauges()
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
        let me = ctx.node;
        if from != me {
            // Any frame from the peer is proof of life.
            self.links[from.index()].timeouts = 0;
            self.suspects.remove(&from.0);
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
                let Reliable {
                    inner, links, down, ..
                } = self;
                let mut port: RelPort<'_, N> = RelPort {
                    outer: ctx.port,
                    links,
                    down,
                    me,
                    watch: None,
                    watched_ack: None,
                };
                let mut ictx = Ctx::<N> {
                    port: &mut port,
                    node: me,
                };
                inner.on_message(&mut ictx, from, payload);
            }
            RelMsg::Data {
                seq,
                ack,
                sack,
                epoch,
                ack_epoch,
                payload,
            } => {
                let now = ctx.now();
                {
                    let link = &mut self.links[from.index()];
                    if epoch < link.peer_epoch {
                        // Straggler from a dead epoch of the peer's
                        // stream (delayed across its crash): discard.
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
                }
                self.process_ack(from, ack, sack, ack_epoch, now);
                let Reliable {
                    inner, links, down, ..
                } = self;
                let mut port: RelPort<'_, N> = RelPort {
                    outer: ctx.port,
                    links,
                    down,
                    me,
                    // Watch reverse traffic to `from`: if the handler
                    // sends data back, its piggybacked ack makes a
                    // standalone ack redundant.
                    watch: Some(from),
                    watched_ack: None,
                };
                {
                    let link = &mut port.links[from.index()];
                    if seq <= link.delivered {
                        // Duplicate (network dup or retransmit after a
                        // lost ack): discard, but re-ack so the sender
                        // can stop retransmitting.
                        let ackv = link.delivered;
                        let sackv = link.sack_bitmap();
                        let ack_epoch = link.peer_epoch;
                        port.outer.send_from(
                            me,
                            from,
                            RelMsg::Ack {
                                ack: ackv,
                                sack: sackv,
                                ack_epoch,
                            },
                        );
                        return;
                    }
                    link.reorder.insert(seq, payload);
                }
                // Deliver everything now contiguous, in seq order. The
                // watermark moves before each inner call so piggybacked
                // acks on reverse traffic already cover the delivery.
                loop {
                    let next = {
                        let link = &mut port.links[from.index()];
                        match link.reorder.remove(&(link.delivered + 1)) {
                            Some(p) => {
                                link.delivered += 1;
                                Some(p)
                            }
                            None => None,
                        }
                    };
                    let Some(p) = next else { break };
                    let mut ictx = Ctx::<N> {
                        port: &mut port,
                        node: me,
                    };
                    inner.on_message(&mut ictx, from, p);
                }
                let link = &port.links[from.index()];
                let delivered = link.delivered;
                if port.watched_ack != Some(delivered) {
                    let sackv = link.sack_bitmap();
                    let ack_epoch = link.peer_epoch;
                    port.outer.send_from(
                        me,
                        from,
                        RelMsg::Ack {
                            ack: delivered,
                            sack: sackv,
                            ack_epoch,
                        },
                    );
                }
            }
        }
    }

    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, op: Self::Op) -> OpOutcome<Self::Reply> {
        let Reliable {
            inner, links, down, ..
        } = self;
        let mut port: RelPort<'_, N> = RelPort {
            outer: ctx.port,
            links,
            down,
            me: ctx.node,
            watch: None,
            watched_ack: None,
        };
        let mut ictx = Ctx::<N> {
            port: &mut port,
            node: ctx.node,
        };
        inner.on_op(&mut ictx, op)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, token: u64) {
        if token & REL_TIMER_BIT == 0 {
            let Reliable {
                inner, links, down, ..
            } = self;
            let mut port: RelPort<'_, N> = RelPort {
                outer: ctx.port,
                links,
                down,
                me: ctx.node,
                watch: None,
                watched_ack: None,
            };
            let mut ictx = Ctx::<N> {
                port: &mut port,
                node: ctx.node,
            };
            inner.on_timer(&mut ictx, token);
            return;
        }
        let me = ctx.node;
        let peer = (token & !REL_TIMER_BIT) as usize;
        let now = ctx.now();
        let rto_max = self.cfg.rto_max;
        let suspect_after = self.cfg.suspect_after;
        let link = &mut self.links[peer];
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
        // back off and re-arm. Karn's rule: mark them so their acks
        // produce no RTT samples.
        let ackv = link.delivered;
        let sackv = link.sack_bitmap();
        let ack_epoch = link.peer_epoch;
        let epoch = link.epoch;
        let mut frames: Vec<(u64, N::Msg)> = Vec::new();
        for f in link.outstanding.iter_mut() {
            if !f.sacked {
                f.rexmit = true;
                frames.push((f.seq, f.msg.clone()));
            }
        }
        let rto = std::cmp::min(link.rto * 2, rto_max);
        link.rto = rto;
        link.deadline = now + rto;
        link.timer_armed = true;
        link.timeouts += 1;
        if link.timeouts >= suspect_after {
            // Repeated silence: a perfect network would have acked by
            // now. Either the peer is dead or the link is cut.
            self.suspects.insert(peer as u32);
        }
        for (seq, payload) in frames {
            ctx.port.note_retransmit(payload.kind_id(), payload.kind());
            ctx.port.send_from(
                me,
                NodeId(peer as u32),
                RelMsg::Data {
                    seq,
                    ack: ackv,
                    sack: sackv,
                    epoch,
                    ack_epoch,
                    payload,
                },
            );
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
                self.suspects.clear();
                self.down.clear();
            }
            FaultNotice::Recovered => {
                // Fresh streams in a fresh epoch: anything the old
                // incarnation sent or was owed is void.
                for link in &mut self.links {
                    link.reset(rto0, true);
                }
                self.suspects.clear();
            }
            FaultNotice::PeerDown { peer: p, .. } => {
                // Stop retransmitting into the void — with the peer's
                // volatile state gone, go-back-N can never complete and
                // would keep every crash run alive forever. The inner
                // protocol sees the peer on the suspect list and must
                // handle the loss at its own level.
                let link = &mut self.links[p.index()];
                link.outstanding.clear();
                link.reorder.clear();
                link.timeouts = 0;
                self.suspects.insert(p.0);
                self.down.insert(p.0);
            }
            FaultNotice::PeerUp(p) => {
                // The peer rebooted: restart our send stream to it in a
                // new epoch (our old frames/acks are stale to it, and
                // vice versa).
                self.links[p.index()].reset(rto0, true);
                self.suspects.remove(&p.0);
                self.down.remove(&p.0);
            }
        }
        let Reliable {
            inner, links, down, ..
        } = self;
        let mut port: RelPort<'_, N> = RelPort {
            outer: ctx.port,
            links,
            down,
            me: ctx.node,
            watch: None,
            watched_ack: None,
        };
        let mut ictx = Ctx::<N> {
            port: &mut port,
            node: ctx.node,
        };
        inner.on_fault(&mut ictx, notice);
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
    /// Peer whose inbound data we are currently processing (ack
    /// suppression: see `watched_ack`).
    watch: Option<NodeId>,
    /// Piggybacked ack value last sent to `watch` during this handler
    /// invocation, if any.
    watched_ack: Option<u64>,
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
        if self.down.contains(&dst.0) {
            // The kernel confirmed this peer crashed: an ack can never
            // come back, so ship the frame once (the kernel drops and
            // counts it) without consuming retransmit state. The link
            // restarts in a fresh epoch at `PeerUp` anyway.
            let seq = link.next_seq;
            link.next_seq += 1;
            self.outer.send_from(
                src,
                dst,
                RelMsg::Data {
                    seq,
                    ack: link.delivered,
                    sack: link.sack_bitmap(),
                    epoch: link.epoch,
                    ack_epoch: link.peer_epoch,
                    payload: msg,
                },
            );
            return;
        }
        let seq = link.next_seq;
        link.next_seq += 1;
        let ack = link.delivered;
        let sack = link.sack_bitmap();
        let epoch = link.epoch;
        let ack_epoch = link.peer_epoch;
        if link.outstanding.is_empty() {
            // First unacked frame on this link: its timeout starts now.
            link.deadline = now + link.rto;
        }
        link.outstanding.push_back(Frame {
            seq,
            msg: msg.clone(),
            sent: now,
            rexmit: false,
            sacked: false,
        });
        if self.watch == Some(dst) {
            self.watched_ack = Some(ack);
        }
        let arm = !link.timer_armed;
        link.timer_armed = true;
        let rto = link.rto;
        self.outer.send_from(
            src,
            dst,
            RelMsg::Data {
                seq,
                ack,
                sack,
                epoch,
                ack_epoch,
                payload: msg,
            },
        );
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

    fn note_retransmit(&mut self, id: KindId, kind: &'static str) {
        self.outer.note_retransmit(id, kind);
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

        fn describe(&self) -> String {
            format!("totals={:?}", self.totals)
        }

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

    #[test]
    fn describe_reports_retransmit_queue_depths() {
        let mut node = Reliable::new(
            AddNode::default(),
            2,
            RelConfig::from_model(&CostModel::lan_1992(), 2),
        );
        assert!(node.describe().contains("rexmit-q empty"));
        let f = |seq| Frame {
            seq,
            msg: AddMsg::Add(seq),
            sent: SimTime::ZERO,
            rexmit: false,
            sacked: false,
        };
        node.links[1].outstanding.push_back(f(1));
        node.links[1].outstanding.push_back(f(2));
        assert!(
            node.describe().contains("rexmit-q [n1:2]"),
            "{}",
            node.describe()
        );
        node.suspects.insert(1);
        assert!(
            node.describe().contains("suspects [n1]"),
            "{}",
            node.describe()
        );
    }

    #[test]
    fn rtt_samples_tighten_the_rto() {
        let model = CostModel::lan_1992();
        let cfg = RelConfig::from_model(&model, 3);
        let rto0 = cfg.rto_initial;
        let mut node = Reliable::new(AddNode::default(), 3, cfg);
        // One frame sent at t=0, acked 80µs later in the same epoch:
        // rto becomes srtt + 4·rttvar = 80 + 4·40 = 240µs.
        node.links[1].outstanding.push_back(Frame {
            seq: 1,
            msg: AddMsg::Add(1),
            sent: SimTime::ZERO,
            rexmit: false,
            sacked: false,
        });
        node.process_ack(NodeId(1), 1, 0, 0, SimTime::ZERO + Dur::micros(80));
        assert_eq!(node.srtt_nanos(NodeId(1)), Some(80_000));
        let rto = node.links[1].rto;
        assert_eq!(rto, Dur::micros(240));
        assert!(rto < rto0, "measured RTO should beat the model guess");
        // A retransmitted frame must not produce a sample (Karn).
        node.links[1].outstanding.push_back(Frame {
            seq: 2,
            msg: AddMsg::Add(2),
            sent: SimTime::ZERO,
            rexmit: true,
            sacked: false,
        });
        node.process_ack(NodeId(1), 2, 0, 0, SimTime::ZERO + Dur::millis(90));
        assert_eq!(node.srtt_nanos(NodeId(1)), Some(80_000));
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
