//! A sync-only node behavior: lock + barrier engines with no coherence
//! protocol attached (`()` piggybacks). Used to test and benchmark the
//! synchronization substrate in isolation (experiments E7/E8).

use crate::barrier::BarrierKind;
use crate::engines::{SyncDone, SyncEngines};
use crate::lock::LockKind;
use crate::msg::{BarrierId, LockId, SyncHost, SyncMsg};
use dsm_net::{Ctx, NodeBehavior, NodeId, OpOutcome};

/// Operations the application program can issue.
#[derive(Debug, Clone, Copy)]
pub enum SyncOp {
    Acquire(LockId),
    Release(LockId),
    Barrier(BarrierId),
}

/// A node running only the synchronization machinery.
pub struct SyncNode {
    sync: SyncEngines<()>,
    /// Op the program is parked on, if any.
    pending: Option<SyncOp>,
}

impl SyncNode {
    pub fn new(me: NodeId, nnodes: u32, lock_kind: LockKind, barrier_kind: BarrierKind) -> Self {
        SyncNode {
            sync: SyncEngines::new(lock_kind, barrier_kind, me, nnodes),
            pending: None,
        }
    }

    /// Build one behavior per node.
    pub fn cluster(nnodes: u32, lock_kind: LockKind, barrier_kind: BarrierKind) -> Vec<SyncNode> {
        (0..nnodes)
            .map(|i| SyncNode::new(NodeId(i), nnodes, lock_kind, barrier_kind))
            .collect()
    }
}

/// The kernel context as the engines' host: a transport, and nothing
/// to attach to any synchronization message.
struct Io<'a, 'b> {
    ctx: &'a mut Ctx<'b, SyncNode>,
}

impl SyncHost<()> for Io<'_, '_> {
    fn send(&mut self, dst: NodeId, msg: SyncMsg<()>) {
        self.ctx.send(dst, msg);
    }
}

impl NodeBehavior for SyncNode {
    type Msg = SyncMsg<()>;
    type Op = SyncOp;
    type Reply = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
        let Some(done) = self.sync.on_message(&mut Io { ctx }, from, msg) else {
            return;
        };
        match (done, self.pending.take()) {
            (SyncDone::Acquired(lock), Some(SyncOp::Acquire(l))) if l == lock => {}
            (SyncDone::Released(id), Some(SyncOp::Barrier(b))) if b == id => {}
            (done, pending) => panic!("unexpected {done:?} while pending {pending:?}"),
        }
        ctx.complete_op(());
    }

    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, op: SyncOp) -> OpOutcome<()> {
        let done = match op {
            SyncOp::Acquire(lock) => self.sync.locks.acquire(&mut Io { ctx }, lock),
            SyncOp::Release(lock) => {
                self.sync.locks.release(&mut Io { ctx }, lock);
                true
            }
            SyncOp::Barrier(id) => {
                ctx.nodes() == 1 || self.sync.barriers.arrive(&mut Io { ctx }, id)
            }
        };
        if done {
            OpOutcome::Done(())
        } else {
            self.pending = Some(op);
            OpOutcome::Blocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_net::{AppHandle, CostModel, Dur, Sim};

    type H = AppHandle<SyncOp, ()>;

    fn run_cluster(
        n: u32,
        lock_kind: LockKind,
        barrier_kind: BarrierKind,
        body: impl Fn(&H) + Send + Sync,
    ) -> dsm_net::RunResult<()> {
        let nodes = SyncNode::cluster(n, lock_kind, barrier_kind);
        let body = &body;
        let programs: Vec<_> = (0..n).map(|_| move |h: &H| body(h)).collect();
        Sim::new(nodes, CostModel::lan_1992())
            .max_events(2_000_000)
            .run(programs)
    }

    fn mutex_torture(lock_kind: LockKind) {
        // Each node increments a virtual critical-section nesting
        // counter via lock/unlock many times; the engines' internal
        // assertions catch double grants.
        run_cluster(5, lock_kind, BarrierKind::Central, |h: &H| {
            for _ in 0..20 {
                h.op(SyncOp::Acquire(3));
                h.advance(Dur::micros(50));
                h.op(SyncOp::Release(3));
            }
        });
    }

    #[test]
    fn central_lock_survives_contention() {
        mutex_torture(LockKind::Central);
    }

    #[test]
    fn queue_lock_survives_contention() {
        mutex_torture(LockKind::Queue);
    }

    #[test]
    fn barrier_synchronizes_virtual_times() {
        for kind in [BarrierKind::Central, BarrierKind::Tree(2)] {
            let n = 6;
            let nodes = SyncNode::cluster(n, LockKind::Queue, kind);
            let programs: Vec<_> = (0..n)
                .map(|i| {
                    move |h: &H| {
                        // Skewed arrival times.
                        h.advance(Dur::millis(i as u64 + 1));
                        h.op(SyncOp::Barrier(0));
                        h.now()
                    }
                })
                .collect();
            let res = Sim::new(nodes, CostModel::lan_1992()).run(programs);
            // Nobody leaves the barrier before the slowest arrival.
            let slowest = Dur::millis(n as u64).as_nanos();
            for t in &res.results {
                assert!(t.as_nanos() >= slowest, "{kind:?}: left barrier early: {t}");
            }
        }
    }

    #[test]
    fn repeated_barriers_reuse_state() {
        run_cluster(4, LockKind::Queue, BarrierKind::Tree(2), |h: &H| {
            for _ in 0..10 {
                h.op(SyncOp::Barrier(1));
            }
        });
    }

    #[test]
    fn queue_lock_cheaper_than_central_under_contention() {
        let count = |kind| {
            let res = run_cluster(6, kind, BarrierKind::Central, |h: &H| {
                for _ in 0..10 {
                    h.op(SyncOp::Acquire(0));
                    h.advance(Dur::micros(10));
                    h.op(SyncOp::Release(0));
                }
            });
            res.stats.total_msgs()
        };
        let central = count(LockKind::Central);
        let queue = count(LockKind::Queue);
        assert!(
            queue < central,
            "queue lock should need fewer messages: queue={queue} central={central}"
        );
    }

    #[test]
    fn single_node_barrier_is_free() {
        let res = run_cluster(1, LockKind::Queue, BarrierKind::Central, |h: &H| {
            h.op(SyncOp::Barrier(0));
            h.op(SyncOp::Barrier(0));
        });
        assert_eq!(res.stats.total_msgs(), 0);
    }
}
