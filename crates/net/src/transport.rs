//! The backend-agnostic transport surface behind every handler.
//!
//! A [`NodeBehavior`] never talks to the network directly: its handlers
//! receive a [`Ctx`], and `Ctx` forwards to a `dyn` [`Transport`] — the
//! object-safe send/receive/clock/timer surface a backend must provide.
//! Three implementations exist:
//!
//! * the deterministic PDES kernel (`crate::kernel::Kernel`), where
//!   "time" is virtual and every delivery is an event priced by the
//!   [`CostModel`];
//! * the reliable adapter (`crate::reliable::Reliable`'s internal
//!   port), which interposes on another transport and turns each send
//!   into a sequenced, acknowledged frame; and
//! * the real-socket reactor (`crate::rt::SocketRt`), where "time" is
//!   wall-clock nanoseconds and sends are UDP datagrams.
//!
//! Because the protocol stack only ever sees `Ctx`, the same behavior —
//! including [`crate::reliable::Reliable`] itself — runs unchanged over
//! any backend. The simulator path is bit-identical to what it was when
//! this trait lived inside the kernel: extraction moved code, not
//! semantics.

use crate::kernel::NodeBehavior;
use crate::model::CostModel;
use crate::msg::NodeId;
use crate::stats::KindId;
use crate::time::{Dur, SimTime};
use crate::trace::{Kind, Rec};

/// Everything a handler's [`Ctx`] may ask of the world, factored as an
/// object-safe trait over (message, reply) types so that a wrapper
/// behavior can interpose: the PDES kernel implements it directly, the
/// reliable transport implements it *for its inner behavior's types* by
/// translating each send into a sequenced, acknowledged frame, and the
/// UDP socket reactor implements it over real datagrams.
pub trait Transport<M, R> {
    /// The current time. Virtual on the simulator backend, wall-clock
    /// nanoseconds since reactor start on the socket backend.
    fn now(&self) -> SimTime;
    /// Total number of nodes in the run.
    fn nnodes(&self) -> u32;
    /// The cost model in effect (protocols charge local costs with it;
    /// real backends keep one around for install-cost bookkeeping and
    /// retransmission-timeout derivation).
    fn model(&self) -> &CostModel;
    /// Send `msg` from `src` to `dst`.
    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: M);
    /// Send on the one-sided (RDMA-style) path: when the model
    /// supports it, the message is priced with the one-sided costs and
    /// delivered as a NIC-level event ([`NodeBehavior::on_nic`]) that
    /// charges the target no software receive cost. The default routes
    /// through [`Transport::send_from`] — which is exactly what the
    /// reliable transport adapter inherits, so under a `FaultPlan` a
    /// one-sided op is automatically wrapped into sequenced,
    /// retransmitted frames and handled by the software
    /// (`on_message`) path instead.
    fn send_one_sided(&mut self, src: NodeId, dst: NodeId, msg: M) {
        self.send_from(src, dst, msg);
    }
    /// Complete `node`'s parked application op after a local delay.
    fn complete_op_after(&mut self, node: NodeId, reply: R, delay: Dur);
    /// Arrange for `on_timer(token)` on `node` after `delay`.
    fn set_timer_on(&mut self, node: NodeId, delay: Dur, token: u64);
    /// Record `r` (see [`crate::trace`]): the backend sets its cause.
    fn rec(&mut self, r: Rec);
}

/// Handler context: the view of the world a [`NodeBehavior`] gets while
/// one of its hooks runs. A thin wrapper over a `dyn` [`Transport`]:
/// the kernel directly, a transport adapter translating sends (see
/// [`crate::reliable`]), or the socket reactor (see [`crate::rt`]).
pub struct Ctx<'a, N: NodeBehavior + ?Sized> {
    pub(crate) port: &'a mut (dyn Transport<N::Msg, N::Reply> + 'a),
    pub(crate) node: NodeId,
}

impl<'a, N: NodeBehavior + ?Sized> Ctx<'a, N> {
    /// Current time (virtual on the simulator backend, wall-clock
    /// nanoseconds since start on the socket backend).
    pub fn now(&self) -> SimTime {
        self.port.now()
    }

    /// The node this handler is running on.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Total number of nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.port.nnodes()
    }

    /// The cost model in effect (for charging local costs).
    pub fn model(&self) -> &CostModel {
        self.port.model()
    }

    /// Send `msg` to `dst`; delivery is scheduled per the cost model.
    /// Sending to self is allowed and goes through the same path (used
    /// by managers colocated with a requester to keep counting honest —
    /// though colocated paths normally shortcut via direct calls).
    pub fn send(&mut self, dst: NodeId, msg: N::Msg) {
        self.port.send_from(self.node, dst, msg);
    }

    /// Send `msg` on the one-sided (RDMA-style) path. On fabrics with
    /// one-sided support the message is priced with the one-sided
    /// costs and delivered to the target's [`NodeBehavior::on_nic`]
    /// hook without charging the target any software receive time; on
    /// anything else (including under a reliable transport adapter) it
    /// degrades to an ordinary [`Ctx::send`].
    pub fn send_one_sided(&mut self, dst: NodeId, msg: N::Msg) {
        self.port.send_one_sided(self.node, dst, msg);
    }

    /// Complete this node's parked application op immediately.
    pub fn complete_op(&mut self, reply: N::Reply) {
        self.complete_op_after(reply, Dur::ZERO);
    }

    /// Complete this node's parked application op after a local delay
    /// (e.g. installing a received page costs a memcpy).
    pub fn complete_op_after(&mut self, reply: N::Reply, delay: Dur) {
        self.port.complete_op_after(self.node, reply, delay);
    }

    /// Arrange for `on_timer(token)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: Dur, token: u64) {
        self.port.set_timer_on(self.node, delay, token);
    }

    /// Record a `kind` on this node, now (see [`crate::trace`]).
    pub fn rec(&mut self, kind: Kind, unit: u64, msg: KindId, bytes: u64) {
        let r = Rec::new(self.now(), self.node, kind, unit, msg, bytes);
        self.port.rec(r);
    }
}
