//! Golden simulator counts: nothing the protocol can see may move when
//! host-side bookkeeping is rewritten.
//!
//! The values below were recorded on the commit *before* LRC's causal
//! ordering, interval log, residency accounting and the barrier's
//! release split were rewritten for host speed (PR 17), and are held
//! equal ever since: kernel events, rendezvous, total messages, total
//! modeled bytes and the virtual completion time. A change that moves
//! any of them changed a message, a wire size or an event order — say
//! which and why, then re-record.
//!
//! The SOR rows are also the only place a combining-tree barrier is
//! driven through `run_dsm` (40 nodes, arities 2 and 4), under both a
//! barrier-payload-heavy protocol (`lrc`) and an eager one (`erc`).

use dsm_apps::{kv, sor};
use dsm_core::{BarrierKind, CostModel, Dsm, DsmConfig, ProtocolKind, RunResult};

/// `[events, rendezvous, msgs, bytes, end_time ns]`.
type Counts = [u64; 5];

fn counts<V>(res: &RunResult<V>) -> Counts {
    [
        res.events,
        res.rendezvous,
        res.stats.total_msgs(),
        res.stats.total_bytes(),
        res.end_time.as_nanos(),
    ]
}

/// The E21 board as the benchmark's `sim_kv_lrc` runs it, at 400
/// operations per node.
fn kv_board(gc: bool) -> Counts {
    let p = kv::KvParams {
        keys: 512,
        ops_per_node: 400,
        read_pct: 80,
        skew: 0.99,
        stripes: 16,
        seed: 21,
    };
    let cfg = DsmConfig::new(8, ProtocolKind::Lrc)
        .model(CostModel::lan_1992())
        .heap_bytes(p.heap_bytes())
        .page_size(1024)
        .lrc_gc(gc)
        .max_events(400_000_000);
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| kv::run(d, &p));
    let want = kv::reference_digest(&p, 8);
    assert!(
        res.results.iter().all(|&d| d == want),
        "kv digest (gc={gc})"
    );
    counts(&res)
}

/// Red-black SOR, one interior row per node, three rows to a page.
fn sor_40(proto: ProtocolKind, barrier: BarrierKind) -> Counts {
    const NODES: u32 = 40;
    let p = sor::SorParams {
        n: NODES as usize + 2,
        iters: 2,
        omega: 1.25,
    };
    let cfg = DsmConfig::new(NODES, proto)
        .model(CostModel::lan_1992())
        .heap_bytes(p.heap_bytes())
        .page_size(1024)
        .barrier_kind(barrier);
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| sor::run(d, &p));
    for (i, &got) in res.results.iter().enumerate() {
        let want = sor::reference_block_sum(&p, NODES as usize, i);
        assert!((got - want).abs() < 1e-9, "{proto} {barrier:?} node {i}");
    }
    counts(&res)
}

#[test]
fn kv_board_under_lrc_matches_the_recorded_counts() {
    assert_eq!(
        kv_board(true),
        [21_448, 9_133, 14_765, 989_834, 2_486_996_240],
        "lrc_gc on"
    );
    assert_eq!(
        kv_board(false),
        [21_417, 9_120, 14_751, 962_675, 2_452_971_840],
        "lrc_gc off"
    );
}

#[test]
fn sor_at_40_nodes_matches_the_recorded_counts_under_every_barrier() {
    let golden: [(ProtocolKind, BarrierKind, Counts); 6] = [
        (
            ProtocolKind::Lrc,
            BarrierKind::Central,
            [2_795, 754, 1_738, 534_756, 257_415_440],
        ),
        (
            ProtocolKind::Lrc,
            BarrierKind::Tree(2),
            [2_796, 752, 1_738, 765_252, 220_900_480],
        ),
        (
            ProtocolKind::Lrc,
            BarrierKind::Tree(4),
            [2_795, 744, 1_738, 654_384, 200_256_160],
        ),
        (
            ProtocolKind::Erc,
            BarrierKind::Central,
            [3_918, 482, 3_128, 162_445, 214_411_360],
        ),
        (
            ProtocolKind::Erc,
            BarrierKind::Tree(2),
            [3_925, 493, 3_138, 166_780, 163_088_480],
        ),
        (
            ProtocolKind::Erc,
            BarrierKind::Tree(4),
            [3_923, 487, 3_130, 164_636, 140_366_160],
        ),
    ];
    for (proto, barrier, want) in golden {
        assert_eq!(sor_40(proto, barrier), want, "{proto} {barrier:?}");
    }
}
