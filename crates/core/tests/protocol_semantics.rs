//! Semantics tests that distinguish the protocols — not just "right
//! answer", but *how* each model propagates writes.

use dsm_core::trace::{Kind, Rec};
use dsm_core::{CostModel, Dsm, DsmConfig, Dur, GlobalAddr, ProtocolKind};
use dsm_net::Payload;
use dsm_proto::ProtoMsg;

/// LRC causality is transitive: node 0 writes X under lock A; node 1
/// acquires A (learns of X), writes Y under lock B; node 2 acquires B
/// and must see BOTH Y and X — the interval records travel through the
/// chain even though node 2 never touched lock A.
#[test]
fn lrc_transitive_causality_through_lock_chain() {
    let cfg = DsmConfig::new(3, ProtocolKind::Lrc)
        .heap_bytes(4096)
        .page_size(256);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let x = GlobalAddr(0);
        let y = GlobalAddr(512);
        match dsm.id().0 {
            0 => {
                dsm.acquire(1);
                dsm.write_u64(x, 111);
                dsm.release(1);
                // Hand node 1 the baton out of band via a second lock
                // cycle (virtual-time ordering is deterministic).
                dsm.barrier(9);
                dsm.barrier(10);
                0
            }
            1 => {
                dsm.barrier(9);
                dsm.acquire(1); // sees X's notice
                let seen_x = dsm.read_u64(x);
                dsm.release(1);
                dsm.acquire(2);
                dsm.write_u64(y, 222);
                dsm.release(2);
                dsm.barrier(10);
                seen_x
            }
            _ => {
                dsm.barrier(9);
                dsm.barrier(10);
                dsm.acquire(2); // must transitively deliver X's notice
                let got_y = dsm.read_u64(y);
                let got_x = dsm.read_u64(x);
                dsm.release(2);
                got_x * 1000 + got_y
            }
        }
    });
    assert_eq!(res.results[1], 111, "node 1 must see X after acquiring A");
    assert_eq!(res.results[2], 111 * 1000 + 222, "node 2 must see X AND Y");
}

/// ERC pushes updates to existing copies at release: after a reader has
/// fetched a page once, a writer's flush refreshes the copy in place —
/// the reader's next read needs no second fetch.
#[test]
fn erc_release_refreshes_existing_copies_without_refetch() {
    let cfg = DsmConfig::new(2, ProtocolKind::Erc)
        .heap_bytes(1024)
        .page_size(256);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let a = GlobalAddr(0);
        if dsm.id().0 == 1 {
            let first = dsm.read_u64(a); // fetch: joins the copyset
            dsm.barrier(0);
            dsm.barrier(1);
            let second = dsm.read_u64(a); // refreshed in place
            (first, second)
        } else {
            dsm.barrier(0);
            dsm.acquire(5);
            dsm.write_u64(a, 99);
            dsm.release(5); // eager flush reaches node 1's copy
            dsm.barrier(1);
            (0, 0)
        }
    });
    assert_eq!(res.results[1], (0, 99));
    // Exactly one fetch from node 1, despite two reads.
    // (Re-run to inspect stats: results already proved the semantics;
    // the fetch count proves the mechanism.)
    let res2 = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let a = GlobalAddr(0);
        if dsm.id().0 == 1 {
            dsm.read_u64(a);
            dsm.barrier(0);
            dsm.barrier(1);
            dsm.read_u64(a);
        } else {
            dsm.barrier(0);
            dsm.acquire(5);
            dsm.write_u64(a, 99);
            dsm.release(5);
            dsm.barrier(1);
        }
    });
    assert_eq!(res2.stats.kind("FetchReq").count, 1, "{}", res2.stats);
    assert!(res2.stats.kind("DiffApply").count >= 1, "{}", res2.stats);
}

/// Under LRC the same scenario costs no message at release time — the
/// reader's copy goes stale and is repaired lazily on its next access.
/// (Interval GC off: with GC the post-barrier repair is an epoch flush
/// instead — covered by `lrc_gc_retires_diffs_at_barrier` below.)
#[test]
fn lrc_release_sends_nothing_reader_repairs_lazily() {
    let cfg = DsmConfig::new(2, ProtocolKind::Lrc)
        .heap_bytes(1024)
        .page_size(256)
        .lrc_gc(false);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let a = GlobalAddr(0);
        if dsm.id().0 == 1 {
            dsm.read_u64(a);
            dsm.barrier(0);
            dsm.barrier(1);
            dsm.read_u64(a)
        } else {
            dsm.barrier(0);
            dsm.acquire(5);
            dsm.write_u64(a, 77);
            dsm.release(5);
            dsm.barrier(1);
            0
        }
    });
    assert_eq!(res.results[1], 77);
    // The diff traveled on demand (a diff request), not at release.
    assert!(res.stats.kind("LrcDiffReq").count >= 1, "{}", res.stats);
    assert_eq!(res.stats.kind("DiffApply").count, 0);
}

/// With interval GC (the default) the barrier retires the epoch: the
/// write's diff rides the barrier to the page's home, the reader's
/// stale copy is evicted, and no lazy diff request ever happens — yet
/// the value read is identical.
#[test]
fn lrc_gc_retires_diffs_at_barrier() {
    let cfg = DsmConfig::new(2, ProtocolKind::Lrc)
        .heap_bytes(1024)
        .page_size(256);
    let (res, trace) = dsm_core::run_traced(
        &cfg,
        |dsm: &Dsm<'_>| {
            let a = GlobalAddr(0);
            if dsm.id().0 == 1 {
                dsm.read_u64(a);
                dsm.barrier(0);
                dsm.barrier(1);
                dsm.read_u64(a)
            } else {
                dsm.barrier(0);
                dsm.acquire(5);
                dsm.write_u64(a, 77);
                dsm.release(5);
                dsm.barrier(1);
                0
            }
        },
        Vec::new(),
    );
    assert_eq!(res.results[1], 77);
    assert_eq!(res.stats.kind("LrcDiffReq").count, 0, "{}", res.stats);
    // End-of-run metadata is fully retired on every node: each node's
    // last LRC record finds its interval log empty.
    for node in 0..2 {
        let lrc = |r: &&Rec| r.node == node && matches!(r.kind, Kind::Resident | Kind::Log);
        let last = trace.iter().rfind(lrc).expect("lrc records");
        assert_eq!(last.unit, 0, "interval log not retired: {last:?}");
    }
}

/// Manager-scheme IVY transactions are serialized per page, so even a
/// jittery (reordering) network preserves sequential consistency.
#[test]
fn ivy_manager_schemes_survive_jitter() {
    for proto in [ProtocolKind::IvyCentral, ProtocolKind::IvyFixed] {
        let model = CostModel::lan_1992().with_jitter(Dur::micros(800), 12345);
        let cfg = DsmConfig::new(4, proto)
            .heap_bytes(1024)
            .page_size(256)
            .model(model);
        let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
            let me = dsm.id().0 as usize;
            for round in 0..5u64 {
                dsm.write_u64(GlobalAddr(me * 8), round * 4 + me as u64);
                dsm.barrier(0);
                let sum: u64 = (0..4).map(|i| dsm.read_u64(GlobalAddr(i * 8))).sum();
                assert_eq!(sum, round * 16 + 6, "{proto} round {round}");
                dsm.barrier(1);
            }
        });
        assert!(res.stats.total_msgs() > 0);
    }
}

/// The dynamic scheme's poison-and-retry path also keeps it correct
/// under jitter (a racing invalidation can outrun a page copy).
#[test]
fn ivy_dynamic_survives_jitter_via_poisoning() {
    let model = CostModel::lan_1992().with_jitter(Dur::micros(800), 999);
    let cfg = DsmConfig::new(4, ProtocolKind::IvyDynamic)
        .heap_bytes(1024)
        .page_size(256)
        .model(model);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let me = dsm.id().0 as usize;
        for round in 0..6u64 {
            // Everyone hammers the same page.
            dsm.write_u64(GlobalAddr(me * 8), round + me as u64);
            dsm.barrier(0);
            let mine = dsm.read_u64(GlobalAddr(me * 8));
            assert_eq!(mine, round + me as u64);
            dsm.barrier(1);
        }
    });
    assert!(res.stats.total_msgs() > 0);
}

/// Entry consistency moves only dirty bytes with the lock: grants for a
/// large guarded region whose holder wrote 8 bytes stay small.
#[test]
fn entry_grants_carry_only_dirty_data() {
    let region = 16 * 1024; // 16 KiB guarded region
    let cfg = DsmConfig::new(3, ProtocolKind::Entry)
        .heap_bytes(region)
        .page_size(1024)
        .bind(0, GlobalAddr(0), region);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        for _ in 0..4 {
            dsm.with_lock(0, |d| {
                let v = d.read_u64(GlobalAddr(128));
                d.write_u64(GlobalAddr(128), v + 1);
            });
        }
        dsm.barrier(0);
        dsm.with_lock(0, |d| d.read_u64(GlobalAddr(128)))
    });
    assert!(res.results.iter().all(|&v| v == 12));
    // 12 handoffs moving one 8-byte counter must not move megabytes.
    let grant_bytes = res.stats.kind("LockGrant").bytes;
    assert!(
        grant_bytes < 4096,
        "grants should carry dirty bytes only, got {grant_bytes}"
    );
}

/// The one-sided `rdma` protocol: on a fabric with one-sided support,
/// remote read faults are served by the home's NIC (the trace's
/// `Deliver` records with the NIC bit set count them); on the 1992 LAN
/// the identical messages take the software delivery path and no
/// delivery is the NIC's.
/// Either way the answers are sequentially consistent — same
/// write/barrier/read-sum workload the IVY jitter tests use.
#[test]
fn rdma_serves_reads_at_the_nic_on_modern_fabrics_only() {
    let run = |model: CostModel| {
        let cfg = DsmConfig::new(4, ProtocolKind::Rdma)
            .heap_bytes(1024)
            .page_size(256)
            .model(model);
        let program = |dsm: &Dsm<'_>| {
            let me = dsm.id().0 as usize;
            for round in 0..5u64 {
                dsm.write_u64(GlobalAddr(me * 256), round * 4 + me as u64);
                dsm.barrier(0);
                let sum: u64 = (0..4).map(|i| dsm.read_u64(GlobalAddr(i * 256))).sum();
                assert_eq!(sum, round * 16 + 6, "round {round}");
                dsm.barrier(1);
            }
        };
        dsm_core::run_traced(&cfg, program, Vec::new())
    };
    let nic_served = |trace: &[Rec]| {
        let read = ProtoMsg::RdmaRead { pages: Vec::new() }.kind_id();
        let nic = |r: &&Rec| r.kind == Kind::Deliver { nic: true } && r.msg == read;
        trace.iter().filter(nic).count()
    };
    let (_, modern) = run(CostModel::rdma_modern());
    assert!(
        nic_served(&modern) > 0,
        "no read was ever served one-sided on the modern fabric"
    );
    let (lan, trace) = run(CostModel::lan_1992());
    assert_eq!(
        nic_served(&trace),
        0,
        "lan_1992 has no one-sided support; every read must take the software path"
    );
    assert!(lan.stats.total_msgs() > 0);
}
#[test]
fn update_protocol_refreshes_reader_copies() {
    let cfg = DsmConfig::new(2, ProtocolKind::Update)
        .heap_bytes(1024)
        .page_size(256);
    let res = dsm_core::run_dsm(&cfg, |dsm: &Dsm<'_>| {
        let a = GlobalAddr(8);
        if dsm.id().0 == 1 {
            dsm.read_u64(a);
            dsm.barrier(0);
            dsm.barrier(1);
            dsm.read_u64(a)
        } else {
            dsm.barrier(0);
            dsm.write_u64(a, 31);
            dsm.barrier(1);
            0
        }
    });
    assert_eq!(res.results[1], 31);
    assert_eq!(res.stats.kind("FetchReq").count, 1);
    assert!(res.stats.kind("UpdApply").count >= 1);
}
