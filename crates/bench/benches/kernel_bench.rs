//! Simulator substrate throughput: events per second for message
//! ping-pong and contended lock handoffs (keeps the experiment suite's
//! wall-clock honest), and the two shapes a `Go` grant can take — back
//! to the program that just yielded (no hop) and across to another
//! program (one hop: a context switch). Divide the last two rows by
//! their grant counts for the per-grant figures in docs/PERF.md.

use criterion::{criterion_group, criterion_main, Criterion};
use dsm_net::{
    AppHandle, CostModel, Ctx, Dur, KindId, NodeBehavior, NodeId, OpOutcome, Payload, Sim,
};
use dsm_sync::{BarrierKind, LockKind, SyncNode, SyncOp};
use std::hint::black_box;

#[derive(Clone)]
enum M {
    Ping(u32),
    Pong(u32),
}
impl Payload for M {
    fn wire_bytes(&self) -> usize {
        8
    }
    fn kind(&self) -> &'static str {
        "pp"
    }
    fn kind_id(&self) -> KindId {
        KindId(42)
    }
}
struct PingNode;
impl NodeBehavior for PingNode {
    type Msg = M;
    type Op = u32;
    type Reply = ();
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: M) {
        match msg {
            M::Ping(k) => ctx.send(from, M::Pong(k)),
            M::Pong(0) => ctx.complete_op(()),
            M::Pong(k) => ctx.send(from, M::Ping(k - 1)),
        }
    }
    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, rounds: u32) -> OpOutcome<()> {
        ctx.send(NodeId(1), M::Ping(rounds));
        OpOutcome::Blocked
    }
}

/// Answers every op on the spot, so each op is one grant straight back
/// to the program that issued it.
struct NullNode;
impl NodeBehavior for NullNode {
    type Msg = M;
    type Op = ();
    type Reply = ();
    fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: M) {}
    fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
        OpOutcome::Done(())
    }
}

/// One ping to the other node and back per op; with both programs at
/// it in lockstep, consecutive grants alternate between the two.
struct CrossNode;
impl NodeBehavior for CrossNode {
    type Msg = M;
    type Op = ();
    type Reply = ();
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: M) {
        match msg {
            M::Ping(k) => ctx.send(from, M::Pong(k)),
            M::Pong(_) => ctx.complete_op(()),
        }
    }
    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
        let peer = NodeId(1 - ctx.me().0);
        ctx.send(peer, M::Ping(0));
        OpOutcome::Blocked
    }
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(20);

    group.bench_function("ping_pong_2000_msgs", |b| {
        b.iter(|| {
            let sim = Sim::new(
                vec![PingNode, PingNode],
                CostModel::uniform(Dur::micros(5), 1),
            );
            let res = sim.run(vec![
                |h: &AppHandle<u32, ()>| h.op(999),
                |_h: &AppHandle<u32, ()>| (),
            ]);
            black_box(res.end_time)
        })
    });

    group.bench_function("queue_lock_8n_x20", |b| {
        b.iter(|| {
            let nodes = SyncNode::cluster(8, LockKind::Queue, BarrierKind::Central);
            let programs: Vec<_> = (0..8)
                .map(|_| {
                    |h: &AppHandle<SyncOp, ()>| {
                        for _ in 0..20 {
                            h.op(SyncOp::Acquire(0));
                            h.advance(Dur::micros(10));
                            h.op(SyncOp::Release(0));
                        }
                    }
                })
                .collect();
            let res = Sim::new(nodes, CostModel::lan_1992()).run(programs);
            black_box(res.stats.total_msgs())
        })
    });

    // 10_001 grants, none of which changes thread.
    group.bench_function("null_op_x10000", |b| {
        b.iter(|| {
            let sim = Sim::new(vec![NullNode], CostModel::lan_1992());
            let res = sim.run(vec![|h: &AppHandle<(), ()>| {
                for _ in 0..10_000 {
                    h.op(());
                }
            }]);
            black_box(res.rendezvous)
        })
    });

    // 2_002 grants, alternating between the two programs.
    group.bench_function("cross_node_ping_pong_x2000", |b| {
        b.iter(|| {
            let sim = Sim::new(
                vec![CrossNode, CrossNode],
                CostModel::uniform(Dur::micros(5), 1),
            );
            let programs: Vec<_> = (0..2)
                .map(|_| {
                    |h: &AppHandle<(), ()>| {
                        for _ in 0..1_000 {
                            h.op(());
                        }
                    }
                })
                .collect();
            let res = sim.run(programs);
            black_box(res.rendezvous)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
