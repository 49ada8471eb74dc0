//! Synchronization scaling (E7, E8) and the real page-fault engines'
//! cost breakdown (E10).

use super::Scale;
use crate::table::{print_table, xs_of, Series};
use dsm_core::{run_in_threads, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_net::{AppHandle, CostModel, Dur, Sim};
use dsm_sync::{BarrierKind, LockKind, SyncNode, SyncOp};
use dsm_vm::{run_vm, VmConfig, VmMode};
use std::time::{Duration, Instant};

type H = AppHandle<SyncOp, ()>;

/// E7 — contended mutual exclusion: time per critical section as nodes
/// grow, centralized server lock vs distributed queue lock.
/// Expectation: the queue lock's direct releaser→acquirer handoff
/// needs one message where the central lock needs three through a
/// serializing server.
pub fn e07_locks(scale: Scale) {
    let ns = scale.pick(vec![2u32, 4], vec![2, 4, 8, 16, 32]);
    let iters = scale.pick(5u64, 20);
    let hold = Dur::micros(100);
    let kinds = [("central", LockKind::Central), ("queue", LockKind::Queue)];
    let mut time: Vec<Series> = kinds.iter().map(|(l, _)| Series::new(*l)).collect();
    let mut msgs: Vec<Series> = kinds
        .iter()
        .map(|(l, _)| Series::new(format!("{l} msgs/cs")))
        .collect();
    for &n in &ns {
        for (ki, &(_, kind)) in kinds.iter().enumerate() {
            let nodes = SyncNode::cluster(n, kind, BarrierKind::Central);
            let programs: Vec<_> = (0..n)
                .map(|_| {
                    move |h: &H| {
                        for _ in 0..iters {
                            h.op(SyncOp::Acquire(1));
                            h.advance(hold);
                            h.op(SyncOp::Release(1));
                        }
                    }
                })
                .collect();
            let res = Sim::new(nodes, CostModel::lan_1992()).run(programs);
            let total_cs = (iters * n as u64) as f64;
            time[ki].push(res.end_time.as_millis_f64() / total_cs);
            msgs[ki].push(res.stats.total_msgs() as f64 / total_cs);
        }
    }
    print_table(
        "E7: contended lock — time per critical section (ms)",
        "nodes",
        &xs_of(&ns),
        &time,
    );
    print_table(
        "E7: contended lock — messages per critical section",
        "nodes",
        &xs_of(&ns),
        &msgs,
    );
}

/// E8 — barrier latency as nodes grow: centralized manager vs
/// combining trees. Expectation: the central manager's NIC serializes
/// N releases (linear); trees pay O(log N) rounds.
pub fn e08_barriers(scale: Scale) {
    let ns = scale.pick(vec![2u32, 4, 8], vec![2, 4, 8, 16, 32, 64, 128]);
    let rounds = scale.pick(3u64, 10);
    let kinds = [
        ("central", BarrierKind::Central),
        ("tree2", BarrierKind::Tree(2)),
        ("tree4", BarrierKind::Tree(4)),
    ];
    let mut series: Vec<Series> = kinds.iter().map(|(l, _)| Series::new(*l)).collect();
    for &n in &ns {
        for (ki, &(_, kind)) in kinds.iter().enumerate() {
            let nodes = SyncNode::cluster(n, LockKind::Queue, kind);
            let programs: Vec<_> = (0..n)
                .map(|_| {
                    move |h: &H| {
                        for _ in 0..rounds {
                            h.op(SyncOp::Barrier(0));
                        }
                    }
                })
                .collect();
            let res = Sim::new(nodes, CostModel::lan_1992()).run(programs);
            series[ki].push(res.end_time.as_millis_f64() / rounds as f64);
        }
    }
    print_table(
        "E8: barrier latency per episode (ms)",
        "nodes",
        &xs_of(&ns),
        &series,
    );
}

/// E10 — the real engines' basic costs (cf. TreadMarks' "basic
/// operation costs" table), measured on this machine with `mprotect` +
/// SIGSEGV: `run_vm`'s sequentially consistent write-invalidate (service
/// threads in one process) and cluster mode's protocol stack (nodes as
/// threads over loopback UDP) under `ivy-fixed` and `lrc`.
pub fn e10_vm_costs(scale: Scale) {
    let pages = scale.pick(16usize, 64);
    let rounds = scale.pick(2usize, 8);
    let ps = dsm_vm::os_page_size();

    let vm = run_vm(VmConfig::new(2, pages, VmMode::Invalidate), |node| {
        let (read, write) = (|p| node.read::<u64>(p * ps), |p, v| node.write(p * ps, v));
        e10_node(node.id(), pages, rounds, read, write, || node.barrier())
    });
    let mut cols = vec![Series {
        label: "vm invalidate".into(),
        values: vm.results[1].to_vec(),
    }];
    for proto in [ProtocolKind::IvyFixed, ProtocolKind::Lrc] {
        let cfg = DsmConfig::new(2, proto)
            .heap_bytes(pages * ps)
            .page_size(ps);
        let res = run_in_threads(&cfg, |d| {
            let read = |p| d.read_u64(GlobalAddr(p * ps));
            let write = |p, v| d.write_u64(GlobalAddr(p * ps), v);
            e10_node(d.id().0 as usize, pages, rounds, read, write, || {
                d.barrier(0)
            })
        });
        cols.push(Series {
            label: proto.name().into(),
            values: res[1].to_vec(),
        });
    }
    print_table(
        "E10: real page faults — us per op at node 1 (run_vm; cluster mode over loopback UDP)",
        "metric",
        &xs_of(&["read fault", "write fault", "barrier"]),
        &cols,
    );
}

/// One node of E10's program, on whichever engine `read`, `write` and
/// `barrier` reach. Each round node 0 writes every page; then node 1
/// reads each (a remote read fault), writes it back incremented (a
/// write fault on a readable page: the upgrade) and meets node 0 at a
/// barrier. Node 1 returns the µs per read, per write and per barrier
/// it timed; each node checks what it reads of the other's writes.
fn e10_node(
    me: usize,
    pages: usize,
    rounds: usize,
    read: impl Fn(usize) -> u64,
    write: impl Fn(usize, u64),
    barrier: impl Fn(),
) -> [f64; 3] {
    let value = |round: usize, page: usize| (round * pages + page) as u64;
    let mut spent = [Duration::ZERO; 3];
    for r in 0..rounds {
        if me == 0 {
            for p in 0..pages {
                if r > 0 {
                    assert_eq!(read(p), value(r - 1, p) + 1, "E10: a write of node 1 lost");
                }
                write(p, value(r, p));
            }
        }
        barrier();
        if me == 1 {
            let t = Instant::now();
            let seen: Vec<u64> = (0..pages).map(&read).collect();
            spent[0] += t.elapsed();
            let t = Instant::now();
            for (p, v) in seen.iter().enumerate() {
                write(p, v + 1);
            }
            spent[1] += t.elapsed();
            let fresh = seen.iter().enumerate().all(|(p, &v)| v == value(r, p));
            assert!(fresh, "E10: node 1 read a stale page");
        }
        let t = Instant::now();
        barrier();
        spent[2] += t.elapsed();
    }
    let per_page = (rounds * pages) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    [
        us(spent[0]) / per_page,
        us(spent[1]) / per_page,
        us(spent[2]) / rounds as f64,
    ]
}
