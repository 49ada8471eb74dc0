//! The coroutine driver: runs one application program per node as a
//! stackful coroutine ([`crate::coro`]) on the thread that called
//! [`Sim::run`], and drives the event loop to completion on those same
//! coroutines. There is no kernel thread, and no thread but the caller's.
//!
//! **The floor is a value.** The whole loop state (the [`Kernel`], the
//! node behaviors, ops awaiting their run-ahead charge, watchdog and
//! window-widening state, and one wake-up slot per program) lives in
//! one heap box, the [`Shard`], and whichever context owns that box *is*
//! the one running actor. A program that yields (`AppHandle::op` /
//! `advance` / `flush_local`, or returning) feeds its yield into the
//! event loop itself and keeps running handlers and window boundaries
//! inline until some program must run next. If that program is itself,
//! the call simply returns — no hop at all; otherwise the box is left
//! in the other program's wake-up slot and the yielder switches to that
//! program's context — one hop, a dozen instructions and no system call
//! ([`crate::coro`]). The root (the caller's own stack) only starts the
//! loop and is switched back to, with the box and a [`ShardExit`] in its
//! slot, when the loop ends. The box only changes hands through a slot
//! at a context switch, so a run is a pure function of virtual time,
//! whichever program executes which event.
//!
//! Sends are not delivered as they are made: they are staged, and the
//! loop works in windows (see [`crate::kernel`]):
//!
//! 1. admit the sends staged during the window that just ended, in
//!    canonical order;
//! 2. read the verdict off the loop's own state: finish, fail
//!    (deadlock / stall / event budget), or open the next window
//!    `[heap_min, heap_min + lookahead)`;
//! 3. process the events strictly inside the window, granting the
//!    floor to programs as they resume.
//!
//! When the loop ends the root first resumes, in node order, every
//! program that started and has not returned: one that finished hands
//! back its value, one parked mid-op finds its slot empty and unwinds,
//! running its destructors. Only then does a failure verdict panic from
//! the caller with the per-node report, or a panic caught in a handler
//! or a program leave `run` with its original payload.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::coro::Coros;
use crate::kernel::{Event, FaultChange, FaultNotice, Kernel, NodeBehavior, OpOutcome};
use crate::model::CostModel;
use crate::msg::NodeId;
use crate::stats::NetStats;
use crate::time::{Dur, SimTime};
use crate::transport::{Ctx, Transport};

/// Loop → program: "you have the floor at virtual time `time`, and
/// may run ahead locally for up to `budget` of virtual time".
struct Go<R> {
    time: SimTime,
    reply: Option<R>,
    budget: Dur,
}

/// Program → loop: why the program stopped running. `elapsed` carries
/// virtual time the program consumed locally (run-ahead under the
/// granted budget) since its last grant.
enum AppYield<Op> {
    /// Submit a DSM operation and wait for its reply. The op is
    /// dispatched at `grant time + elapsed`.
    Op { op: Op, elapsed: Dur },
    /// Total local computation (including run-ahead) to charge.
    Advance(Dur),
    /// The program returned after `elapsed` of local run-ahead.
    Finished { elapsed: Dur },
}

/// The loop state as a program sees it: type-erased over the node
/// behavior, so [`AppHandle`] needs only the op and reply types.
trait Floor<Op, Reply> {
    /// Feed program `from`'s yield into the event loop and run it
    /// until some program must run next. Returns the floor and the
    /// grant if that program is `from` itself; otherwise the floor went
    /// to another context while `from` was parked, and its wake-up slot
    /// says what it was resumed with.
    fn drive(self: Box<Self>, from: usize, y: AppYield<Op>) -> Option<Wake<Op, Reply>>;

    /// Program code panicked while holding the floor: return it to the
    /// root with the payload.
    fn abandon(self: Box<Self>, payload: PanicPayload);
}

type PanicPayload = Box<dyn Any + Send + 'static>;

/// What a program is resumed with: the floor and the grant to run under.
type Wake<Op, Reply> = (Box<dyn Floor<Op, Reply>>, Go<Reply>);

/// Where a value waits for the context about to be switched to.
type Slot<T> = Cell<Option<T>>;

/// Every program's wake-up slot, by node id.
type WakeSlots<Op, Reply> = Rc<[Slot<Wake<Op, Reply>>]>;

/// The application program's handle to the simulated machine. One per
/// node; the program calls these methods and the event loop interleaves
/// all programs deterministically in virtual time.
///
/// Virtual time as seen by the program is `base + used`: `base` is the
/// kernel clock at the last `Go` grant and `used` is local run-ahead
/// accumulated since, bounded by the granted `budget`. The fast-path
/// accessors (`local_allows` / `consume_local` / `flush_local`) let a
/// lease holder (see `dsm-core`) service page hits entirely inside the
/// program, within that window.
///
/// While the program runs, the handle owns the floor; every yielding
/// method drives the event loop on the program's own stack (see the
/// module docs).
pub struct AppHandle<Op, Reply> {
    node: NodeId,
    nnodes: u32,
    /// This program's slot is at `node`.
    wake: WakeSlots<Op, Reply>,
    /// The loop state, held from a grant to the next yield.
    floor: Cell<Option<Box<dyn Floor<Op, Reply>>>>,
    base: Cell<SimTime>,
    used: Cell<Dur>,
    budget: Cell<Dur>,
}

/// Unwind payload of a parked program whose run ended without it (a
/// failure verdict or a panic elsewhere dropped the floor). Raised with
/// `resume_unwind`, so the panic hook stays quiet: the real report
/// leaves from the caller's thread.
struct FloorLost;

impl<Op, Reply> AppHandle<Op, Reply> {
    /// This program's node id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Total nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.nnodes
    }

    /// Current virtual time, including local run-ahead.
    pub fn now(&self) -> SimTime {
        self.base.get() + self.used.get()
    }

    /// Take the floor and a grant: straight from the loop if it came
    /// back to this program, else from the wake-up slot.
    fn accept(&self, wake: Option<Wake<Op, Reply>>) -> Option<Reply> {
        let (floor, go) = wake
            .or_else(|| self.wake[self.node.index()].take())
            .unwrap_or_else(|| resume_unwind(Box::new(FloorLost)));
        self.floor.set(Some(floor));
        self.base.set(go.time);
        self.used.set(Dur::ZERO);
        self.budget.set(go.budget);
        go.reply
    }

    /// Stop running: drive the event loop with `y` until this program
    /// is granted the floor again.
    fn yield_now(&self, y: AppYield<Op>) -> Option<Reply> {
        let floor = self
            .floor
            .take()
            .expect("program yielded without the floor");
        self.accept(floor.drive(self.node.index(), y))
    }

    /// Submit an operation to the local protocol and wait (in virtual
    /// time) for its reply. Any accumulated run-ahead is charged first:
    /// the op is dispatched at `base + elapsed`.
    pub fn op(&self, op: Op) -> Reply {
        let elapsed = self.used.replace(Dur::ZERO);
        self.yield_now(AppYield::Op { op, elapsed })
            .expect("op resumed without a reply")
    }

    /// Model `d` of pure local computation. Accumulates locally while
    /// the granted budget lasts; otherwise yields to the event loop.
    pub fn advance(&self, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        let used = self.used.get();
        if used + d <= self.budget.get() {
            self.used.set(used + d);
            return;
        }
        let reply = self.yield_now(AppYield::Advance(used + d));
        debug_assert!(reply.is_none());
    }

    /// True if `d` more virtual time fits in the current run-ahead
    /// budget. A zero budget always fails: the fast path is disabled
    /// whenever the kernel could not grant a window (e.g. zero-cost
    /// models), so ordering matches the rendezvous path exactly.
    pub fn local_allows(&self, d: Dur) -> bool {
        let budget = self.budget.get();
        budget > Dur::ZERO && self.used.get() + d <= budget
    }

    /// Consume `d` of the run-ahead budget for a locally serviced
    /// access. Call only after [`AppHandle::local_allows`] approved it.
    pub fn consume_local(&self, d: Dur) {
        debug_assert!(self.local_allows(d), "consume_local exceeds granted budget");
        self.used.set(self.used.get() + d);
    }

    /// Yield accumulated run-ahead to the event loop and receive a
    /// fresh budget grant. Returns `false` (doing nothing) if no time
    /// has been consumed since the last grant — yielding then would be
    /// a pure no-op rendezvous and could perturb event ordering.
    pub fn flush_local(&self) -> bool {
        let used = self.used.get();
        if used == Dur::ZERO {
            return false;
        }
        let reply = self.yield_now(AppYield::Advance(used));
        debug_assert!(reply.is_none());
        true
    }

    /// Body of a program's coroutine: take the first grant, run the
    /// program, and pass the floor on — with the program's panic
    /// payload if it panicked while holding it. `None` means the
    /// program did not return normally.
    fn run_program<V>(self, program: impl FnOnce(&Self) -> V) -> Option<V> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.accept(None);
            program(&self)
        }));
        let floor = self.floor.take();
        match (outcome, floor) {
            (Ok(v), Some(floor)) => {
                // Keep the loop going on this stack until the floor
                // moves on; a finished program is never granted again.
                let elapsed = self.used.get();
                let back = floor.drive(self.node.index(), AppYield::Finished { elapsed });
                debug_assert!(back.is_none(), "finished program was granted the floor");
                Some(v)
            }
            (Err(payload), Some(floor)) => {
                floor.abandon(payload);
                None
            }
            // Unwound without the floor (`FloorLost`, or a failed
            // expectation after it): the run has already ended
            // elsewhere and that end is what gets reported.
            (_, None) => None,
        }
    }
}

/// Outcome of a completed run.
#[derive(Debug)]
pub struct RunResult<V> {
    /// Virtual time at which the last program finished — the parallel
    /// execution time used for speedup figures.
    pub end_time: SimTime,
    /// Per-node program finish times.
    pub finish_times: Vec<SimTime>,
    /// Aggregate network traffic.
    pub stats: NetStats,
    /// `Go` grants performed over the whole run: each is one rendezvous
    /// of a program with the event loop. A grant costs real time only
    /// when it moves the floor to another context (see `handoffs`); the
    /// batched fault pipeline exists to shrink this number.
    pub rendezvous: u64,
    /// Context switches that moved the floor over the whole run: from
    /// the root to the first program, from program to program, and
    /// back to the root at the end. A grant to the program that ran
    /// last costs none. The same for every run of one configuration.
    pub handoffs: u64,
    /// Per-node program return values.
    pub results: Vec<V>,
    /// Per-node end-of-run metric gauges
    /// ([`NodeBehavior::gauges`]), indexed by node.
    pub gauges: Vec<Vec<(&'static str, u64)>>,
    /// Total kernel events processed.
    pub events: u64,
    /// Wall-clock duration of the run, for throughput reporting.
    pub wall: std::time::Duration,
}

impl<V> RunResult<V> {
    /// Simulator throughput: kernel events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Default progress-watchdog window: ten seconds of virtual time with
/// no program making progress is treated as a hang. Far above any
/// legitimate gap (the longest single modeled cost in the tree is a
/// sub-second bulk transfer), far below a wedged run's event horizon.
const DEFAULT_STALL_WINDOW: Dur = Dur::millis(10_000);

/// Configuration for one simulation run.
pub struct Sim<N: NodeBehavior> {
    nodes: Vec<N>,
    model: CostModel,
    max_events: u64,
    stall_window: Dur,
}

impl<N: NodeBehavior> Sim<N> {
    /// Build a run over the given per-node behaviors (protocol
    /// instances) and cost model.
    pub fn new(nodes: Vec<N>, model: CostModel) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        Sim {
            nodes,
            model,
            max_events: u64::MAX,
            stall_window: DEFAULT_STALL_WINDOW,
        }
    }

    /// Panic (with a diagnostic dump) if more than `max` events are
    /// processed — the backstop for zero-delay livelocks, where virtual
    /// time never advances and the stall watchdog cannot fire. Checked
    /// on every pop, so it fires even on a spin inside one window.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Progress watchdog: panic with a per-node diagnostic dump if no
    /// program makes progress for `window` of virtual time while some
    /// program is still unfinished. `Dur::ZERO` disables the watchdog.
    pub fn stall_window(mut self, window: Dur) -> Self {
        self.stall_window = window;
        self
    }

    /// Run one program per node to completion and return the result.
    ///
    /// `programs.len()` must equal the node count. Programs run on
    /// their own stacks, on the calling thread, in deterministic
    /// cooperative order.
    ///
    /// Panics on distributed deadlock: if the event queue drains while
    /// some program has not finished, the blocked nodes are reported.
    /// Panics before anything runs if a stack cannot be mapped.
    pub fn run<V, F>(self, programs: Vec<F>) -> RunResult<V>
    where
        N: 'static,
        V: Send,
        F: FnOnce(&AppHandle<N::Op, N::Reply>) -> V + Send,
    {
        let Sim {
            nodes,
            model,
            max_events,
            stall_window,
        } = self;
        let nnodes = nodes.len() as u32;
        assert_eq!(programs.len(), nodes.len(), "one program per node required");
        let wall_start = std::time::Instant::now();

        // Every stack before anything runs, so a host too small for the
        // run says so here, with nothing parked.
        let coros = Rc::new(Coros::map(nodes.len()).unwrap_or_else(|(i, e)| {
            panic!(
                "a {nnodes}-node run needs {nnodes} program stacks; mapping stack {i} failed: {e}"
            )
        }));
        let wake: WakeSlots<_, _> = nodes.iter().map(|_| Cell::new(None)).collect();
        let home = Rc::new(Cell::new(None));
        let handles = (0..nnodes).map(|node| AppHandle {
            node: NodeId(node),
            nnodes,
            wake: Rc::clone(&wake),
            floor: Cell::new(None),
            base: Cell::new(SimTime::ZERO),
            used: Cell::new(Dur::ZERO),
            budget: Cell::new(Dur::ZERO),
        });
        let lookahead = model.min_net_delay();
        let mut kernel = Kernel::new(nnodes, model);
        kernel.max_events = max_events;
        let shard = Box::new(Shard {
            kernel,
            pending_ops: nodes.iter().map(|_| None).collect(),
            last_progress: SimTime::ZERO,
            unfinished: nodes.len(),
            widen: Widen {
                streak: 0,
                factor: 1,
            },
            admit_floor: SimTime::ZERO,
            stall_window,
            lookahead,
            nodes,
            coros: Rc::clone(&coros),
            wake: Rc::clone(&wake),
            home,
            handoffs: 0,
        });

        let results: Vec<Slot<V>> = programs.iter().map(|_| Cell::new(None)).collect();
        let bodies = programs
            .into_iter()
            .zip(handles)
            .zip(&results)
            .map(|((program, handle), result)| {
                Box::new(move || result.set(handle.run_program(program))) as Box<dyn FnOnce() + '_>
            })
            .collect();

        // `Coros::run` has joined every program when it returns, so a
        // report or a payload leaves the caller with nothing parked.
        let shard = match coros.run(bodies, || run_shard(shard)) {
            (shard, ShardExit::Done) => shard,
            (shard, ShardExit::Fail(verdict)) => panic!("{}", shard.failure_report(&verdict)),
            (_, ShardExit::Panicked(payload)) => resume_unwind(payload),
        };
        let results: Vec<V> = results
            .into_iter()
            .map(|r| {
                r.into_inner()
                    .expect("program did not return on a clean run")
            })
            .collect();

        let finish_times: Vec<SimTime> = shard
            .kernel
            .app
            .iter()
            .map(|slot| slot.finish_time)
            .collect();
        RunResult {
            end_time: finish_times.iter().copied().max().unwrap_or(SimTime::ZERO),
            finish_times,
            rendezvous: shard.kernel.rendezvous,
            handoffs: shard.handoffs,
            results,
            gauges: shard.nodes.iter().map(|n| n.gauges()).collect(),
            events: shard.kernel.events,
            stats: shard.kernel.stats,
            wall: wall_start.elapsed(),
        }
    }
}

/// Adaptive window widening: after [`WIDEN_AFTER`] consecutive
/// zero-traffic windows, the lookahead factor doubles (up to
/// [`WIDEN_CAP`]) so compute-heavy quiet phases cross fewer window
/// boundaries; any staged message resets it. The factor sequence is a
/// function of the per-window staged totals, so every window boundary
/// is a function of virtual time. Correctness of widened windows is
/// restored at admission: messages staged inside one are floored to its
/// end (see [`Kernel::admit_staged`]).
struct Widen {
    streak: u32,
    factor: u64,
}

/// Zero-traffic windows tolerated before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Maximum lookahead multiplier.
const WIDEN_CAP: u64 = 8;

/// Why a run failed, as read at a window boundary.
#[derive(Debug)]
enum Verdict {
    /// The event counter crossed `max_events`.
    Budget,
    /// No program progress for longer than the stall window.
    Stall { last: SimTime },
    /// The heap is empty but some programs never finished.
    Deadlock { t: SimTime },
}

/// How the event loop ended. Left in the root's slot with the box.
enum ShardExit {
    /// Clean finish: every program returned and the heap is empty.
    Done,
    /// Failure verdict: the root builds the report and panics.
    Fail(Verdict),
    /// A handler or a program panicked in the context holding the floor.
    Panicked(PanicPayload),
}

/// The whole loop state — the floor. Built once, boxed, and owned by
/// exactly one context at a time: whoever holds the box runs the event
/// loop (see the module docs).
struct Shard<N: NodeBehavior> {
    kernel: Kernel<N>,
    nodes: Vec<N>,
    /// Ops whose locally accumulated time is still being charged: the
    /// op dispatches when the matching Resume fires.
    pending_ops: Vec<Option<N::Op>>,
    /// Progress watchdog state: the virtual time of the last Resume
    /// event (ops completing, run-ahead being charged, programs
    /// finishing — anything that is program progress rather than
    /// protocol chatter).
    last_progress: SimTime,
    unfinished: usize,
    widen: Widen,
    /// The admission floor owed for messages staged in the window that
    /// just ended: its end time when it was widened, else ZERO (no-op).
    admit_floor: SimTime,
    stall_window: Dur,
    lookahead: Dur,
    /// The programs' contexts and the root's.
    coros: Rc<Coros>,
    wake: WakeSlots<N::Op, N::Reply>,
    /// Where the box goes when the loop ends.
    home: Rc<Slot<Home<N>>>,
    /// Times this box changed contexts.
    handoffs: u64,
}

/// What the root is resumed with: the floor, and how the loop ended.
type Home<N> = (Box<Shard<N>>, ShardExit);

/// Where a program's turn stands (see [`Shard::turn`]).
enum Turn<Op, R> {
    /// The program gets the floor, with the reply it waits for (if any).
    Grant(Option<R>),
    /// The program stopped running.
    Yield(AppYield<Op>),
    /// An op whose run-ahead has been charged is due for dispatch.
    Dispatch(Op),
}

/// How a context enters the event loop (see [`Shard::run`]).
enum Entry<Op> {
    /// The root's only entry: start the run.
    Start,
    /// Program `.0` stopped running.
    Yield(usize, AppYield<Op>),
}

/// What the event loop needs next from whoever holds the box.
enum Step<R> {
    /// Program `to` must run under `go`.
    Grant { to: usize, go: Go<R> },
    /// The loop is over.
    Exit(ShardExit),
}

/// Root side of the loop: start it, pass the floor to the first
/// program, and be switched back to when the loop has ended.
fn run_shard<N: NodeBehavior + 'static>(mut shard: Box<Shard<N>>) -> Home<N> {
    match shard.step(Entry::Start) {
        Step::Exit(exit) => (shard, exit),
        grant => {
            let home = Rc::clone(&shard.home);
            shard.pass(grant);
            home.take().expect("the floor never came back")
        }
    }
}

impl<N: NodeBehavior + 'static> Floor<N::Op, N::Reply> for Shard<N> {
    fn drive(
        mut self: Box<Self>,
        from: usize,
        y: AppYield<N::Op>,
    ) -> Option<Wake<N::Op, N::Reply>> {
        match self.step(Entry::Yield(from, y)) {
            Step::Grant { to, go } if to == from => Some((self, go)),
            step => {
                self.pass(step);
                None
            }
        }
    }

    fn abandon(self: Box<Self>, payload: PanicPayload) {
        self.pass(Step::Exit(ShardExit::Panicked(payload)));
    }
}

impl<N: NodeBehavior + 'static> Shard<N> {
    /// Run the event loop to its next [`Step`], turning a panic inside
    /// it (a handler's, say) into an exit that carries the payload.
    fn step(&mut self, entry: Entry<N::Op>) -> Step<N::Reply> {
        catch_unwind(AssertUnwindSafe(|| self.run(entry)))
            .unwrap_or_else(|payload| Step::Exit(ShardExit::Panicked(payload)))
    }

    /// Leave the box in the slot of the context `step` names and
    /// switch to it: one hop. Returns when the caller is next resumed.
    fn pass(mut self: Box<Self>, step: Step<N::Reply>) {
        self.handoffs += 1;
        let coros = Rc::clone(&self.coros);
        match step {
            Step::Grant { to, go } => {
                let wake = Rc::clone(&self.wake);
                wake[to].set(Some((self, go)));
                coros.switch(to);
            }
            Step::Exit(exit) => {
                let home = Rc::clone(&self.home);
                home.set(Some((self, exit)));
                coros.switch(coros.root());
            }
        }
    }

    /// The event loop: window boundaries around the dispatch core.
    /// Every entry falls into the same loop body and pops the same
    /// events in the same order, whichever contexts the entries come
    /// from.
    fn run(&mut self, entry: Entry<N::Op>) -> Step<N::Reply> {
        match entry {
            Entry::Start => self.start(),
            Entry::Yield(i, y) => {
                if let Some(go) = self.turn(i, Turn::Yield(y)) {
                    return Step::Grant { to: i, go };
                }
            }
        }
        loop {
            // Process the window (empty until the first boundary opens
            // one).
            while !self.kernel.over_event_budget() {
                let Some((t, event)) = self.kernel.pop_in_window() else {
                    break;
                };
                if self.kernel.over_event_budget() {
                    break;
                }
                if let Some((to, go)) = self.dispatch(t, event) {
                    return Step::Grant { to, go };
                }
            }
            match self.window_boundary() {
                Ok(window_end) => {
                    self.kernel.set_window_end(window_end);
                    self.admit_floor = if self.widen.factor > 1 {
                        window_end
                    } else {
                        SimTime::ZERO
                    };
                }
                Err(exit) => return Step::Exit(exit),
            }
        }
    }

    /// Protocol start hooks, then kick every program at t=0 in node
    /// order. Sends from on_start are staged and admitted at the first
    /// window boundary like any others.
    fn start(&mut self) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mut ctx = Ctx {
                port: &mut self.kernel,
                node: NodeId(i as u32),
            };
            node.on_start(&mut ctx);
        }
        for i in 0..self.nodes.len() as u32 {
            self.kernel
                .schedule(SimTime::ZERO, Event::Resume { node: NodeId(i) });
        }
    }

    /// Cross a window boundary: admit what the window that just ended
    /// staged, then read where the run stands. Returns the end of the
    /// next window, or how the loop ended.
    fn window_boundary(&mut self) -> Result<SimTime, ShardExit> {
        let staged = self.kernel.admit_staged(self.admit_floor);
        if staged == 0 {
            self.widen.streak += 1;
            if self.widen.streak >= WIDEN_AFTER && self.widen.factor < WIDEN_CAP {
                self.widen.factor *= 2;
            }
        } else {
            self.widen.streak = 0;
            self.widen.factor = 1;
        }
        if self.kernel.over_event_budget() {
            return Err(ShardExit::Fail(Verdict::Budget));
        }
        let Some(m) = self.kernel.heap_min() else {
            return Err(if self.unfinished == 0 {
                ShardExit::Done
            } else {
                ShardExit::Fail(Verdict::Deadlock {
                    t: self.kernel.now(),
                })
            });
        };
        if self.stall_window > Dur::ZERO
            && self.unfinished > 0
            && m.since(self.last_progress) > self.stall_window
        {
            return Err(ShardExit::Fail(Verdict::Stall {
                last: self.last_progress,
            }));
        }
        // Every event strictly below this bound is safe to process: any
        // message sent by an event at or after `m` delivers at least
        // `lookahead` later (and never earlier — jitter, spikes and
        // queueing only add). The 1ns floor keeps zero-lookahead models
        // moving one timestamp per window. With the widening factor > 1
        // the bound is no longer intrinsic; the admission floor at the
        // window end restores it.
        Ok(m + (self.lookahead * self.widen.factor).max(Dur::nanos(1)))
    }

    /// Run one popped event. Returns the program to grant the floor
    /// to, if the event ends in one.
    fn dispatch(&mut self, t: SimTime, event: Event<N::Msg>) -> Option<(usize, Go<N::Reply>)> {
        let kernel = &mut self.kernel;
        let nodes = &mut self.nodes;
        match event {
            Event::Deliver { src, dst, msg, nic } => {
                if kernel.node_down(dst) {
                    // The destination's volatile state is gone: the
                    // frame dies at the dead host's NIC.
                    kernel.note_crash_dropped();
                    return None;
                }
                let mut ctx = Ctx {
                    port: kernel,
                    node: dst,
                };
                let node = &mut nodes[dst.index()];
                if nic {
                    node.on_nic(&mut ctx, src, msg);
                } else {
                    node.on_message(&mut ctx, src, msg);
                }
            }
            Event::Timer { node, token } => {
                if kernel.node_down(node) {
                    kernel.note_crash_dropped();
                    return None;
                }
                let mut ctx = Ctx { port: kernel, node };
                nodes[node.index()].on_timer(&mut ctx, token);
            }
            Event::Fault { node, change } => {
                kernel.apply_fault(node, change);
                let i = node.index();
                let notice = match change {
                    FaultChange::SelfCrash { .. } => FaultNotice::Crashed,
                    FaultChange::SelfRecover => FaultNotice::Recovered,
                    FaultChange::PeerDown { peer, permanent } => {
                        FaultNotice::PeerDown { peer, permanent }
                    }
                    FaultChange::PeerUp(p) => FaultNotice::PeerUp(p),
                };
                {
                    let mut ctx = Ctx {
                        port: &mut *kernel,
                        node,
                    };
                    nodes[i].on_fault(&mut ctx, notice);
                }
                match change {
                    // No recovery is coming: a program parked on an
                    // op would wedge the whole run, so resume it as
                    // a zombie that runs out of script at the crash
                    // instant (see `turn`).
                    FaultChange::SelfCrash { permanent: true }
                        if kernel.op_awaiting_reply(node) =>
                    {
                        let r = nodes[i].crashed_reply().unwrap_or_else(|| {
                            panic!(
                                "{node} crashed permanently while parked on an op, \
                                 but its behavior provides no crashed_reply"
                            )
                        });
                        kernel.complete_op_after(node, r, Dur::ZERO);
                    }
                    // Re-grant the floor the crash swallowed.
                    FaultChange::SelfRecover if kernel.take_resume_dropped(node) => {
                        kernel.schedule(t, Event::Resume { node });
                    }
                    _ => {}
                }
            }
            Event::Resume { node } => {
                if kernel.node_down(node) && !kernel.node_dead(node) {
                    // Frozen across a crash window: the program
                    // keeps its stack but loses the floor until
                    // recovery re-grants it.
                    kernel.note_resume_dropped(node);
                    return None;
                }
                self.last_progress = t;
                let i = node.index();
                if kernel.app[i].finished {
                    return None;
                }
                let reply = kernel.app[i].pending_reply.take();
                let turn = match self.pending_ops[i].take() {
                    Some(op) => {
                        debug_assert!(reply.is_none(), "reply pending beside an unsent op");
                        Turn::Dispatch(op)
                    }
                    None => Turn::Grant(reply),
                };
                return self.turn(i, turn).map(|go| (i, go));
            }
        }
        None
    }

    /// Advance program `i`'s turn until it either must run (the
    /// grant is returned; its yield re-enters here through
    /// [`Shard::run`]) or is parked on the event queue. Keeps the
    /// program running while its ops complete with zero cost at this
    /// instant.
    fn turn(&mut self, i: usize, mut turn: Turn<N::Op, N::Reply>) -> Option<Go<N::Reply>> {
        let kernel = &mut self.kernel;
        let node = NodeId(i as u32);
        // Stable across a grant: nothing runs while the program holds
        // the floor.
        let dead = kernel.node_dead(node);
        loop {
            let op = match turn {
                Turn::Grant(reply) => {
                    kernel.rendezvous += 1;
                    return Some(Go {
                        time: kernel.now(),
                        reply,
                        budget: kernel.local_budget(node),
                    });
                }
                Turn::Dispatch(op) => op,
                // Zombies pay no virtual time: the node's timeline ends
                // at the crash.
                Turn::Yield(AppYield::Op { op, elapsed }) => {
                    if elapsed == Dur::ZERO || dead {
                        op
                    } else {
                        // Charge the run-ahead first; the op dispatches
                        // when this Resume fires.
                        self.pending_ops[i] = Some(op);
                        let at = kernel.now() + elapsed;
                        kernel.schedule(at, Event::Resume { node });
                        return None;
                    }
                }
                Turn::Yield(AppYield::Advance(d)) => {
                    let at = if dead { kernel.now() } else { kernel.now() + d };
                    kernel.schedule(at, Event::Resume { node });
                    return None;
                }
                Turn::Yield(AppYield::Finished { elapsed }) => {
                    kernel.app[i].finished = true;
                    kernel.app[i].finish_time = if dead {
                        kernel.now()
                    } else {
                        kernel.now() + elapsed
                    };
                    self.unfinished -= 1;
                    return None;
                }
            };
            if dead {
                // Ops from a zombie never reach the behavior: complete
                // immediately with the canned crash reply.
                turn = Turn::Grant(Some(self.nodes[i].crashed_reply().unwrap_or_else(|| {
                    panic!(
                        "{node} crashed permanently but its behavior \
                         provides no crashed_reply"
                    )
                })));
                continue;
            }
            kernel.app[i].in_op = true;
            let outcome = {
                let mut ctx = Ctx {
                    port: &mut *kernel,
                    node,
                };
                self.nodes[i].on_op(&mut ctx, op)
            };
            kernel.app[i].in_op = false;
            match outcome {
                OpOutcome::Done(r) => turn = Turn::Grant(Some(r)),
                OpOutcome::DoneAfter(r, d) => {
                    kernel.app[i].pending_reply = Some(r);
                    let at = kernel.now() + d;
                    kernel.schedule(at, Event::Resume { node });
                    return None;
                }
                OpOutcome::Blocked => {
                    // The op handler may complete synchronously via
                    // complete_op (e.g. colocated manager), in which
                    // case blocked is already false and a Resume is
                    // queued.
                    if kernel.app[i].pending_reply.is_none() {
                        kernel.app[i].blocked = true;
                    }
                    return None;
                }
            }
        }
    }

    /// Multi-line diagnostic for a wedged run: the reason, kernel
    /// counters, the earliest pending event, and every node's program
    /// state plus its behavior's `describe()` line (which, under the
    /// reliable transport, includes in-flight retransmit queue depths).
    fn failure_report(&self, verdict: &Verdict) -> String {
        let kernel = &self.kernel;
        let reason = match verdict {
            Verdict::Budget => format!(
                "kernel exceeded max_events={} — protocol livelock?",
                kernel.max_events
            ),
            Verdict::Stall { last } => format!(
                "progress watchdog: no program progress for {} of virtual \
                 time (last at t={last})",
                self.stall_window
            ),
            Verdict::Deadlock { t } => {
                let never: Vec<String> = kernel
                    .blocked_nodes()
                    .iter()
                    .map(|n| format!("{n}"))
                    .collect();
                format!(
                    "distributed deadlock: event queue drained at t={t} with nodes \
                     never finished [{}]",
                    never.join(" ")
                )
            }
        };
        let mut out = format!(
            "{reason}\n  virtual time: {}\n  events processed: {}\n  event heap: \
             {} pending",
            kernel.now(),
            kernel.events,
            kernel.heap_len()
        );
        if let Some(top) = kernel.peek_summary() {
            out.push_str(&format!(" (next: {top})"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let desc = n.describe();
            let desc = if desc.is_empty() { "-" } else { desc.as_str() };
            out.push_str(&format!("\n  n{i} [{}]: {desc}", kernel.app_state(i)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A trivial ping-pong behavior: node 0's program sends a ping op;
    /// the behavior forwards it to node 1, whose handler pongs back.
    #[derive(Clone)]
    enum PingMsg {
        Ping,
        Pong,
    }
    impl Payload for PingMsg {
        fn wire_bytes(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            match self {
                PingMsg::Ping => "Ping",
                PingMsg::Pong => "Pong",
            }
        }
        fn kind_id(&self) -> crate::stats::KindId {
            match self {
                PingMsg::Ping => crate::stats::KindId(40),
                PingMsg::Pong => crate::stats::KindId(41),
            }
        }
    }

    struct PingNode;
    impl NodeBehavior for PingNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = SimTime;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
            match msg {
                PingMsg::Ping => ctx.send(from, PingMsg::Pong),
                PingMsg::Pong => {
                    let now = ctx.now();
                    ctx.complete_op(now);
                }
            }
        }

        fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, _op: ()) -> OpOutcome<SimTime> {
            ctx.send(NodeId(1), PingMsg::Ping);
            OpOutcome::Blocked
        }
    }

    #[test]
    fn ping_pong_round_trip_time_and_stats() {
        let model = CostModel::uniform(Dur::micros(10), 0);
        let sim = Sim::new(vec![PingNode, PingNode], model);
        let res = sim.run(vec![
            |h: &AppHandle<(), SimTime>| h.op(()),
            |_h: &AppHandle<(), SimTime>| SimTime::ZERO,
        ]);
        // One-way 10us each direction.
        assert_eq!(res.results[0], SimTime(20_000));
        assert_eq!(res.stats.kind("Ping").count, 1);
        assert_eq!(res.stats.kind("Pong").count, 1);
        assert_eq!(res.end_time, SimTime(20_000));
        assert!(res.events > 0, "event count must be reported");
    }

    #[test]
    fn advance_accumulates_virtual_time() {
        let model = CostModel::uniform(Dur::ZERO, 0);
        let sim = Sim::new(vec![PingNode], model);
        let res = sim.run(vec![|h: &AppHandle<(), SimTime>| {
            h.advance(Dur::micros(5));
            h.advance(Dur::micros(7));
            h.now()
        }]);
        assert_eq!(res.results[0], SimTime(12_000));
        assert_eq!(res.finish_times[0], SimTime(12_000));
    }

    #[test]
    fn end_time_is_max_of_finish_times() {
        let model = CostModel::uniform(Dur::ZERO, 0);
        let sim = Sim::new(vec![PingNode, PingNode], model);
        let res = sim.run(vec![
            |h: &AppHandle<(), SimTime>| h.advance(Dur::millis(3)),
            |h: &AppHandle<(), SimTime>| h.advance(Dur::millis(1)),
        ]);
        assert_eq!(res.end_time, SimTime(3_000_000));
        assert_eq!(res.finish_times[1], SimTime(1_000_000));
    }

    struct StuckNode;
    impl NodeBehavior for StuckNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = ();
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
        fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
            OpOutcome::Blocked // nobody will ever complete this
        }
    }

    #[test]
    #[should_panic(expected = "distributed deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new(vec![StuckNode], CostModel::default());
        sim.run(vec![|h: &AppHandle<(), ()>| h.op(())]);
    }

    /// Two nodes ping each other forever via timers without any program
    /// progress: node programs block on an op nobody completes while
    /// the behaviors keep virtual time advancing. The stall watchdog
    /// must fire with a diagnostic dump, not a bare panic.
    struct WedgedNode {
        beats: u64,
    }
    impl NodeBehavior for WedgedNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(Dur::millis(1), 7);
        }
        fn describe(&self) -> String {
            format!("wedged; heartbeats={}", self.beats)
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
        fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
            OpOutcome::Blocked // nobody will ever complete this
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, token: u64) {
            self.beats += 1;
            ctx.set_timer(Dur::millis(1), token);
        }
    }

    fn run_wedged(sim: Sim<WedgedNode>) {
        sim.run(vec![|h: &AppHandle<(), ()>| h.op(()), |h: &AppHandle<
            (),
            (),
        >| h.op(())]);
    }

    fn wedged_panic_message(sim: Sim<WedgedNode>) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_wedged(sim)))
            .expect_err("watchdog should have fired");
        err.downcast_ref::<String>()
            .expect("panic payload should be a String")
            .clone()
    }

    #[test]
    fn stall_watchdog_dumps_node_state() {
        let sim = Sim::new(
            vec![WedgedNode { beats: 0 }, WedgedNode { beats: 0 }],
            CostModel::default(),
        )
        .stall_window(Dur::millis(50));
        let msg = wedged_panic_message(sim);
        assert!(msg.contains("progress watchdog"), "got: {msg}");
        assert!(msg.contains("event heap"), "got: {msg}");
        // Both nodes' describe() lines and program states appear.
        assert!(
            msg.contains("n0 [blocked]: wedged; heartbeats="),
            "got: {msg}"
        );
        assert!(
            msg.contains("n1 [blocked]: wedged; heartbeats="),
            "got: {msg}"
        );
    }

    #[test]
    fn max_events_backstop_dumps_node_state() {
        // Watchdog disabled: only the event-count backstop can fire.
        let sim = Sim::new(
            vec![WedgedNode { beats: 0 }, WedgedNode { beats: 0 }],
            CostModel::default(),
        )
        .stall_window(Dur::ZERO)
        .max_events(500);
        let msg = wedged_panic_message(sim);
        assert!(msg.contains("exceeded max_events=500"), "got: {msg}");
        assert!(msg.contains("n0 [blocked]: wedged"), "got: {msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let model = CostModel::lan_1992();
            let sim = Sim::new(vec![PingNode, PingNode], model);
            let res = sim.run(vec![
                |h: &AppHandle<(), SimTime>| {
                    h.advance(Dur::micros(3));
                    h.op(())
                },
                |h: &AppHandle<(), SimTime>| {
                    h.advance(Dur::micros(50));
                    h.now()
                },
            ]);
            (res.end_time, res.results.clone(), res.stats.total_msgs())
        };
        assert_eq!(run(), run());
    }

    /// A ring of nodes, each pinging its successor.
    struct RingNode;
    impl NodeBehavior for RingNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = SimTime;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
            match msg {
                PingMsg::Ping => ctx.send(from, PingMsg::Pong),
                PingMsg::Pong => {
                    let now = ctx.now();
                    ctx.complete_op(now);
                }
            }
        }
        fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, _op: ()) -> OpOutcome<SimTime> {
            let next = NodeId((ctx.me().0 + 1) % ctx.nodes());
            ctx.send(next, PingMsg::Ping);
            OpOutcome::Blocked
        }
    }

    #[test]
    fn done_after_charges_local_time() {
        struct LocalNode;
        impl NodeBehavior for LocalNode {
            type Msg = PingMsg;
            type Op = u64;
            type Reply = u64;
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
            fn on_op(&mut self, _: &mut Ctx<'_, Self>, op: u64) -> OpOutcome<u64> {
                OpOutcome::DoneAfter(op * 2, Dur::micros(op))
            }
        }
        let sim = Sim::new(vec![LocalNode], CostModel::uniform(Dur::ZERO, 0));
        let res = sim.run(vec![|h: &AppHandle<u64, u64>| {
            let a = h.op(10);
            let b = h.op(5);
            (a, b, h.now())
        }]);
        assert_eq!(res.results[0], (20, 10, SimTime(15_000)));
    }

    /// Answers every op on the spot: `Done` for even ops, `DoneAfter`
    /// for odd ones.
    struct LocalOnly;
    impl NodeBehavior for LocalOnly {
        type Msg = PingMsg;
        type Op = u64;
        type Reply = u64;
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
        fn on_op(&mut self, _: &mut Ctx<'_, Self>, op: u64) -> OpOutcome<u64> {
            if op % 2 == 0 {
                OpOutcome::Done(op)
            } else {
                OpOutcome::DoneAfter(op, Dur::micros(op))
            }
        }
    }

    /// The floor leaves the root once and comes back once; everything
    /// between is the program's own thread running the loop inline.
    const START_AND_FINISH: u64 = 2;

    #[test]
    fn done_at_once_ops_cost_no_handoffs() {
        const OPS: u64 = 1000;
        let sim = Sim::new(vec![LocalOnly], CostModel::lan_1992());
        let res = sim.run(vec![|h: &AppHandle<u64, u64>| {
            (0..OPS).map(|k| h.op(2 * k)).sum::<u64>()
        }]);
        assert_eq!(res.results[0], OPS * (OPS - 1));
        assert_eq!(res.rendezvous, OPS + 1, "one grant per op plus the first");
        assert_eq!(res.handoffs, START_AND_FINISH);
    }

    #[test]
    fn done_after_with_nothing_else_queued_costs_no_handoffs() {
        let sim = Sim::new(vec![LocalOnly], CostModel::lan_1992());
        let res = sim.run(vec![|h: &AppHandle<u64, u64>| {
            let a = h.op(7);
            h.advance(Dur::millis(5)); // past any budget: a real yield
            (a, h.op(3), h.now())
        }]);
        assert_eq!(res.results[0], (7, 3, SimTime(5_010_000)));
        assert_eq!(res.handoffs, START_AND_FINISH);
    }

    #[test]
    fn ping_pong_costs_at_most_one_handoff_per_grant() {
        let model = CostModel::uniform(Dur::micros(10), 0);
        let sim = Sim::new(vec![RingNode, RingNode], model);
        let programs: Vec<_> = (0..2)
            .map(|_| |h: &AppHandle<(), SimTime>| (0..50).map(|_| h.op(())).last())
            .collect();
        let res = sim.run(programs);
        assert_eq!(res.rendezvous, 2 * 51);
        assert!(
            res.handoffs <= res.rendezvous + 1,
            "{} hand-offs for {} grants",
            res.handoffs,
            res.rendezvous
        );
        assert!(res.handoffs >= START_AND_FINISH);
    }

    /// A panic inside a program (an app's result assertion, say) must
    /// reach the caller of `run` with its own payload, while the other
    /// programs are parked mid-op.
    #[test]
    fn program_panic_payload_reaches_the_caller() {
        for culprit in 0..2u32 {
            let model = CostModel::uniform(Dur::micros(10), 0);
            let sim = Sim::new(vec![RingNode, RingNode], model);
            let programs: Vec<_> = (0..2)
                .map(|_| {
                    move |h: &AppHandle<(), SimTime>| {
                        h.op(());
                        if h.id().0 == culprit {
                            panic!("result check failed on n{culprit}");
                        }
                        h.op(());
                    }
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| sim.run(programs)))
                .expect_err("the program's panic must propagate");
            assert_eq!(
                err.downcast_ref::<String>().map(String::as_str),
                Some(format!("result check failed on n{culprit}").as_str())
            );
        }
    }

    /// A handler panic now happens on whichever program thread runs the
    /// loop; the payload must still come out of `run` unchanged.
    #[test]
    fn handler_panic_payload_reaches_the_caller() {
        struct Grumpy;
        impl NodeBehavior for Grumpy {
            type Msg = PingMsg;
            type Op = ();
            type Reply = ();
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {
                panic!("handler refused the message");
            }
            fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
                let peer = NodeId((ctx.me().0 + 1) % ctx.nodes());
                ctx.send(peer, PingMsg::Ping);
                OpOutcome::Blocked
            }
        }
        let sim = Sim::new(vec![Grumpy, Grumpy], CostModel::lan_1992());
        let programs: Vec<_> = (0..2).map(|_| |h: &AppHandle<(), ()>| h.op(())).collect();
        let err = catch_unwind(AssertUnwindSafe(|| sim.run(programs)))
            .expect_err("the handler's panic must propagate");
        assert_eq!(
            err.downcast_ref::<&str>().copied(),
            Some("handler refused the message")
        );
    }

    /// A ring wider than any run whose programs once ran the whole loop
    /// themselves.
    const WIDE: usize = 40;

    /// The {WIDE}-node jittered ring, every observable but `handoffs`
    /// (201 there), as recorded at the parent of the change that made
    /// programs coroutines — where runs this wide relayed message
    /// handlers to the root's thread. One path now; not a number moved.
    #[test]
    fn wide_jittered_ring_matches_the_trace_recorded_through_the_relay() {
        #[rustfmt::skip]
        const FIRST_PONG: [u64; WIDE] = [
            1_941_718, 1_930_937, 1_933_607, 1_935_439, 1_937_033,
            1_933_978, 1_938_794, 1_923_749, 1_926_905, 1_939_731,
            1_926_443, 1_948_568, 1_919_386, 1_931_852, 1_941_521,
            1_927_703, 1_941_996, 1_925_375, 1_933_797, 1_930_845,
            1_936_736, 1_932_359, 1_929_793, 1_938_212, 1_942_321,
            1_949_904, 1_933_220, 1_929_070, 1_946_477, 1_947_042,
            1_944_722, 1_926_705, 1_927_618, 1_935_273, 1_943_218,
            1_938_282, 1_918_509, 1_943_085, 1_937_381, 1_942_329,
        ];
        #[rustfmt::skip]
        const SECOND_PONG: [u64; WIDE] = [
            3_899_515, 3_909_223, 3_898_607, 3_901_617, 3_914_400,
            3_908_738, 3_920_632, 3_890_444, 3_894_417, 3_895_078,
            3_875_114, 3_923_445, 3_878_755, 3_896_949, 3_899_122,
            3_877_874, 3_906_587, 3_902_919, 3_890_116, 3_893_223,
            3_899_274, 3_907_592, 3_911_585, 3_899_759, 3_914_576,
            3_907_296, 3_912_874, 3_899_319, 3_906_648, 3_913_328,
            3_916_693, 3_895_325, 3_893_698, 3_900_207, 3_914_935,
            3_906_856, 3_890_559, 3_912_038, 3_901_346, 3_897_855,
        ];
        let model = CostModel::lan_1992().with_jitter(Dur::micros(20), 7);
        let sim = Sim::new((0..WIDE).map(|_| RingNode).collect(), model);
        let programs: Vec<_> = (0..WIDE)
            .map(|_| {
                |h: &AppHandle<(), SimTime>| {
                    let a = h.op(());
                    h.advance(Dur::micros(30));
                    (a, h.op(()))
                }
            })
            .collect();
        let res = sim.run(programs);

        let finish: Vec<SimTime> = SECOND_PONG.into_iter().map(SimTime).collect();
        let results: Vec<_> = FIRST_PONG
            .into_iter()
            .map(SimTime)
            .zip(finish.clone())
            .collect();
        let mut stats = NetStats::new();
        for _ in 0..2 * WIDE {
            stats.record(crate::stats::KindId(40), "Ping", 8);
            stats.record(crate::stats::KindId(41), "Pong", 8);
        }
        assert_eq!(res.end_time, SimTime(3_923_445));
        assert_eq!(res.finish_times, finish);
        assert_eq!(res.results, results);
        assert_eq!(res.stats, stats);
        assert_eq!((res.rendezvous, res.events), (120, 320));
        assert_eq!(res.handoffs, 121, "one per grant and one home");
    }

    #[test]
    fn program_panic_on_a_wide_shard_reaches_the_caller() {
        let sim = Sim::new((0..WIDE).map(|_| RingNode).collect(), CostModel::lan_1992());
        let programs: Vec<_> = (0..WIDE)
            .map(|_| {
                |h: &AppHandle<(), SimTime>| {
                    h.op(());
                    if h.id().0 == 17 {
                        panic!("result check failed on n17");
                    }
                    h.op(());
                }
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| sim.run(programs)))
            .expect_err("the program's panic must propagate");
        assert_eq!(
            err.downcast_ref::<&str>().copied(),
            Some("result check failed on n17")
        );
    }

    /// Sets its flag when dropped: stands for whatever a program holds
    /// across an op (a lock guard, a buffer, a result being built).
    struct SetOnDrop<'a>(&'a AtomicBool);
    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// A run that ends without a program — parked mid-op for good —
    /// unwinds that program's stack before `run` reports: joining its
    /// thread used to, now the root's last round of resumptions does.
    #[test]
    fn a_parked_programs_locals_are_dropped_before_run_panics() {
        let dropped = AtomicBool::new(false);
        let sim = Sim::new(vec![StuckNode, StuckNode], CostModel::default());
        let programs: Vec<_> = (0..2)
            .map(|_| {
                |h: &AppHandle<(), ()>| {
                    let _held = SetOnDrop(&dropped);
                    h.op(())
                }
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| sim.run(programs)))
            .expect_err("nobody completes these ops");
        let report = err.downcast_ref::<String>().expect("a failure report");
        assert!(report.contains("distributed deadlock"), "got: {report}");
        assert!(dropped.load(Ordering::SeqCst));

        let dropped = AtomicBool::new(false);
        let model = CostModel::uniform(Dur::micros(10), 0);
        let sim = Sim::new(vec![RingNode, RingNode], model);
        let programs: Vec<_> = (0..2)
            .map(|_| {
                |h: &AppHandle<(), SimTime>| {
                    if h.id().0 == 1 {
                        h.op(());
                        panic!("n1 gave up");
                    }
                    let _held = SetOnDrop(&dropped);
                    (0..3).map(|_| h.op(())).last()
                }
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| sim.run(programs)))
            .expect_err("the program's panic must propagate");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("n1 gave up"));
        assert!(dropped.load(Ordering::SeqCst));
    }

    /// A program's stack is as deep as a spawned thread's was (2 MiB),
    /// and what is on it survives being switched away from.
    #[test]
    fn a_program_a_mebibyte_deep_returns_its_value() {
        const FRAMES: u64 = 1024;
        fn dive(h: &AppHandle<(), SimTime>, depth: u64) -> (u64, usize) {
            let pad = [depth as u8; 1024];
            if depth == 0 {
                (h.op(()).0, std::hint::black_box(&pad).as_ptr() as usize)
            } else {
                let (sum, bottom) = dive(h, depth - 1);
                (sum + u64::from(std::hint::black_box(&pad)[512]), bottom)
            }
        }
        let model = CostModel::uniform(Dur::micros(10), 0);
        let sim = Sim::new(vec![RingNode, RingNode], model);
        let programs: Vec<_> = (0..2)
            .map(|_| {
                |h: &AppHandle<(), SimTime>| {
                    let top = 0u8;
                    let (sum, bottom) = dive(h, FRAMES);
                    (sum, std::ptr::from_ref(&top) as usize - bottom)
                }
            })
            .collect();
        let want = 20_000 + (1..=FRAMES).map(|d| u64::from(d as u8)).sum::<u64>();
        for (sum, depth) in sim.run(programs).results {
            assert_eq!(sum, want);
            assert!(depth >= 1 << 20, "only {depth} bytes deep");
        }
    }

    #[test]
    fn every_program_runs_on_the_callers_thread() {
        let sim = Sim::new(vec![RingNode, RingNode, RingNode], CostModel::lan_1992());
        let programs: Vec<_> = (0..3)
            .map(|_| {
                |h: &AppHandle<(), SimTime>| {
                    h.op(());
                    std::thread::current().id()
                }
            })
            .collect();
        let here = std::thread::current().id();
        assert_eq!(sim.run(programs).results, [here; 3]);
    }

    /// A run started from inside a program of another run roots itself
    /// on that program's stack; neither run can tell.
    #[test]
    fn a_run_nested_in_a_program_changes_neither_run() {
        type Trace = (SimTime, Vec<SimTime>, u64, u64);
        /// A jittered ring's trace and, if program 1 ran a ring of
        /// `inner` nodes between its two ops, that ring's.
        fn ring(nodes: u32, inner: Option<u32>) -> (Trace, Option<Trace>) {
            let model = CostModel::lan_1992().with_jitter(Dur::micros(20), u64::from(nodes));
            let sim = Sim::new((0..nodes).map(|_| RingNode).collect(), model);
            let programs: Vec<_> = (0..nodes)
                .map(|_| {
                    move |h: &AppHandle<(), SimTime>| {
                        h.op(());
                        let inner = inner.filter(|_| h.id().0 == 1).map(|n| ring(n, None).0);
                        h.advance(Dur::micros(30));
                        (h.op(()), inner)
                    }
                })
                .collect();
            let res = sim.run(programs);
            let (pongs, mut inner): (Vec<_>, Vec<_>) = res.results.into_iter().unzip();
            let trace = (res.end_time, pongs, res.rendezvous, res.handoffs);
            (trace, inner.swap_remove(1))
        }
        let (outer, inner) = ring(3, Some(5));
        assert_eq!(outer, ring(3, None).0);
        assert_eq!(inner, Some(ring(5, None).0));
    }
}
