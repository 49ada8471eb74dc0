//! # dsm-net — deterministic discrete-event kernel and network model
//!
//! The execution substrate for `pagedsm`'s simulated engine. A run
//! consists of N simulated nodes; each node has
//!
//! * a [`NodeBehavior`] — its protocol state machine, driven entirely
//!   by the event loop: message deliveries, timers, and application
//!   operations; and
//! * an application *program* — ordinary Rust code running as a
//!   coroutine on the thread that called [`Sim::run`], cooperatively
//!   scheduled so that exactly one actor runs at a time. There is no
//!   simulator thread: whichever program yields runs the event loop
//!   itself until the next program is due (see the `driver` module
//!   docs).
//!
//! Virtual time advances only through the event queue, so a run's
//! completion time, message counts, and results are bit-reproducible.
//! The [`CostModel`] prices every message (software overhead, wire
//! latency, bandwidth) and local operations (fault traps, memcpy),
//! which is what makes paper-style speedup and traffic figures
//! meaningful.
//!
//! ```
//! use dsm_net::{
//!     AppHandle, CostModel, Ctx, Dur, KindId, NodeBehavior, NodeId, OpOutcome, Payload, Sim,
//! };
//!
//! // A one-message "protocol": ops are added remotely by node 0.
//! #[derive(Clone)]
//! enum M { Add(u64), Ack }
//! impl Payload for M {
//!     fn wire_bytes(&self) -> usize { 8 }
//!     fn kind(&self) -> &'static str { "Add" }
//!     fn kind_id(&self) -> KindId { KindId(40) }
//! }
//! #[derive(Default)]
//! struct Adder { total: u64 }
//! impl NodeBehavior for Adder {
//!     type Msg = M; type Op = u64; type Reply = ();
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: M) {
//!         match msg {
//!             M::Add(x) => { self.total += x; ctx.send(from, M::Ack); }
//!             M::Ack => ctx.complete_op(()),
//!         }
//!     }
//!     fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, x: u64) -> OpOutcome<()> {
//!         ctx.send(NodeId(0), M::Add(x));
//!         OpOutcome::Blocked
//!     }
//! }
//!
//! let sim = Sim::new(vec![Adder::default(), Adder::default()], CostModel::lan_1992());
//! let res = sim.run(vec![
//!     |_h: &AppHandle<u64, ()>| (),
//!     |h: &AppHandle<u64, ()>| h.op(7),
//! ]);
//! assert_eq!(res.stats.total_msgs(), 2);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
mod coro;
mod driver;
mod kernel;
mod model;
mod msg;
mod nodeset;
mod pagemap;
mod reliable;
mod rng;
pub mod rt;
mod stats;
mod time;
pub mod trace;
mod transport;
mod wire;

pub use driver::{AppHandle, RunResult, Sim};
pub use kernel::{FaultNotice, NodeBehavior, OpOutcome};
pub use model::{CostModel, CrashEvent, FaultPlan, PartitionEvent};
pub use msg::{NodeId, Payload};
pub use nodeset::NodeSet;
pub use pagemap::{PageHasher, PageMap, PageSet};
pub use reliable::{wrap_fleet, RelConfig, RelMsg, Reliable, REL_TIMER_BIT};
pub use rng::XorShift64;
pub use rt::{loopback_rel, SocketCore, SocketRt, Wait, LOOPBACK_REL, LOSSY_LOOPBACK_REL};
pub use stats::{KindId, KindStats, NetStats, MAX_KINDS};
pub use time::{Dur, SimTime};
pub use transport::{Ctx, Transport};
pub use wire::{from_wire_bytes, to_wire_bytes, Wire, WireReader};
