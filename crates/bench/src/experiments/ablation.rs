//! Ablations of design choices called out in DESIGN.md.

use super::{sweep, Metric, Scale};
use crate::table::{print_table, xs_of, Series};
use dsm_core::{Dsm, DsmConfig, Dur, GlobalAddr, LockKind, ProtocolKind};
use dsm_net::{AppHandle, CostModel, Sim};
use dsm_sync::{BarrierKind, SyncNode, SyncOp};

/// E13 — does modeling per-node NIC serialization matter? The same
/// centralized barrier is priced under the full LAN model (sender and
/// receiver occupancy) and under a uniform-latency model with the same
/// one-way delay but no occupancy. Without occupancy the centralized
/// manager looks flat — the bottleneck the literature organized itself
/// around disappears from the model.
pub fn e13_nic_ablation(scale: Scale) {
    let ns = scale.pick(vec![2u32, 8], vec![2, 8, 32, 128]);
    let rounds = scale.pick(3u64, 10);
    let lan = CostModel::lan_1992();
    let uniform = CostModel::uniform(lan.send_overhead + lan.wire_latency + lan.recv_overhead, 0);
    let models = [("with NIC occupancy", lan), ("uniform latency", uniform)];
    let title = "E13 (ablation): central barrier latency with vs without NIC occupancy (ms)";
    let per_episode: Metric<()> = ("", &|_, r| r.end_time.as_millis_f64() / rounds as f64);
    sweep(
        title,
        "nodes",
        &ns,
        &models.each_ref().map(|m| m.0),
        &[per_episode],
        |n, c| {
            let nodes = SyncNode::cluster(n, LockKind::Queue, BarrierKind::Central);
            let programs: Vec<_> = (0..n)
                .map(|_| {
                    move |h: &AppHandle<SyncOp, ()>| {
                        for _ in 0..rounds {
                            h.op(SyncOp::Barrier(0));
                        }
                    }
                })
                .collect();
            Sim::new(nodes, models[c].1.clone()).run(programs)
        },
    );
}

/// E14 — ablation of the lock algorithm under LRC. With the distributed
/// queue lock the acquirer's vector clock reaches the granter, so the
/// grant carries only the missing intervals; with a centralized server
/// the releaser must deposit its entire record set. Message *bytes*
/// diverge as history accumulates, even when message counts stay close.
pub fn e14_lrc_lock_ablation(scale: Scale) {
    let n = scale.pick(4u32, 8);
    let rounds = scale.pick(8, 60);
    let kinds = [
        ("queue lock", LockKind::Queue),
        ("central lock", LockKind::Central),
    ];
    let mut rows: Vec<Series> = kinds.iter().map(|(l, _)| Series::new(*l)).collect();
    let metrics = ["msgs", "sync kbytes", "time ms"];
    for (ki, &(_, kind)) in kinds.iter().enumerate() {
        let cfg = DsmConfig::new(n, ProtocolKind::Lrc)
            .heap_bytes(8 * 1024)
            .page_size(1024)
            .lock_kind(kind)
            .max_events(100_000_000);
        let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
            let me = dsm.id().0 as usize;
            for r in 0..rounds {
                dsm.with_lock(3, |d| {
                    // Touch a different page each round: the interval
                    // history keeps growing.
                    let slot = GlobalAddr(((r as usize + me) % 8) * 1024);
                    let v = d.read_u64(slot);
                    d.write_u64(slot, v + 1);
                });
                dsm.compute(Dur::micros(200));
            }
            dsm.barrier(0);
        });
        let sync_bytes: u64 = ["LockReq", "LockFwd", "LockGrant", "LockRel"]
            .iter()
            .map(|k| res.stats.kind(k).bytes)
            .sum();
        rows[ki].push(res.stats.total_msgs() as f64);
        rows[ki].push(sync_bytes as f64 / 1024.0);
        rows[ki].push(res.end_time.as_millis_f64());
    }
    print_table(
        "E14 (ablation): LRC × lock algorithm — piggyback precision",
        "metric",
        &xs_of(&metrics),
        &rows,
    );
}
