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
//!
//! The eight-node rows at the end were recorded on the last commit whose
//! kernel could be sharded across worker threads (the parent of PR 20),
//! from its one-worker runs: configurations that until then ran only
//! inside worker-count sweeps — one-sided legs on `rdma_modern` (the
//! smallest admission window of any era), the object chase, SOR under
//! 20 % drop, and a crash-and-recover schedule.

use dsm_apps::{chase, kv, matmul, sor, taskqueue, Run};
use dsm_core::{
    BarrierKind, CostModel, Dsm, DsmConfig, Dur, FaultPlan, GlobalAddr, LockKind, ProtocolKind,
    RunResult, SimTime,
};

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
    counts(&kv_board_with(gc, |cfg| cfg))
}

/// [`kv_board`] with `tweak` applied to its configuration, checked
/// against the sequential replay.
fn kv_board_with(gc: bool, tweak: impl FnOnce(DsmConfig) -> DsmConfig) -> RunResult<u64> {
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
    let res = dsm_core::run_dsm(&tweak(cfg), |d: &Dsm<'_>| kv::run(d, &p));
    let want = kv::reference_digest(&p, 8);
    assert!(
        res.results.iter().all(|&d| d == want),
        "kv digest (gc={gc})"
    );
    res
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
    let want = sor::reference_block_sums(&p, NODES as usize);
    for (i, &got) in res.results.iter().enumerate() {
        let want = want[i];
        assert!((got - want).abs() < 1e-9, "{proto} {barrier:?} node {i}");
    }
    counts(&res)
}

/// The benchmark's `sim_sor_wide` shape at one iteration: 512 nodes, one
/// interior row each, a row a few bytes longer than a 4 KiB page. Also
/// returns a digest of every node's block sum, bit for bit.
fn sor_512(barrier: BarrierKind) -> (Counts, u64) {
    const NODES: usize = 512;
    let p = sor::SorParams {
        n: NODES + 2,
        iters: 1,
        omega: 1.25,
    };
    let cfg = DsmConfig::new(NODES as u32, ProtocolKind::Lrc)
        .model(CostModel::lan_1992())
        .heap_bytes(p.heap_bytes())
        .barrier_kind(barrier);
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| sor::run(d, &p));
    let grid = sor::reference(&p);
    for (i, &got) in res.results.iter().enumerate() {
        let want: f64 = grid[(i + 1) * p.n..(i + 2) * p.n].iter().sum();
        assert!((got - want).abs() < 1e-9, "{barrier:?} node {i}");
    }
    let sums = res
        .results
        .iter()
        .fold(0u64, |d, s| d.rotate_left(7) ^ s.to_bits());
    (counts(&res), sums)
}

/// Recorded on the parent of the PR that made a wide `lrc` barrier cost
/// what each node holds (one written set shared by an episode's
/// releases, eviction driven by the pages held, clocks joined from
/// their deltas).
#[test]
fn sor_at_512_nodes_matches_the_recorded_counts_under_every_barrier() {
    const SUMS: u64 = 0xfb4d_0765_763a_1734;
    for (barrier, want) in [
        (
            BarrierKind::Central,
            [28_654, 8_183, 20_462, 32_847_316, 8_597_199_680],
        ),
        (
            BarrierKind::Tree(2),
            [28_654, 8_151, 20_462, 90_603_788, 15_149_997_600],
        ),
        (
            BarrierKind::Tree(4),
            [28_654, 8_070, 20_462, 62_736_860, 9_361_763_840],
        ),
    ] {
        assert_eq!(sor_512(barrier), (want, SUMS), "{barrier:?}");
    }
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

/// Recorded before LRC's clocks, interval records and diffs became
/// shared values and its log one run per creator. A
/// central lock server grants on behalf of an unknown releaser, so
/// every release deposits the releaser's whole log, dense-encoded.
#[test]
fn kv_board_under_a_central_lock_matches_the_recorded_counts() {
    let central = |cfg: DsmConfig| cfg.lock_kind(LockKind::Central);
    assert_eq!(
        counts(&kv_board_with(true, central)),
        [22_073, 8_917, 15_236, 136_365_443, 39_606_113_440],
        "lrc_gc on"
    );
    assert_eq!(
        counts(&kv_board_with(false, central)),
        [22_118, 8_919, 15_282, 136_347_127, 39_681_373_760],
        "lrc_gc off"
    );
}

/// Duplicated grants and diff replies reach a receiver that already
/// holds what they carry. Re-recorded when the reliable transport began
/// to defer its standalone acks and stopped taking RTT samples from
/// frames acked late behind a hole (was `[39_122, 8_300, 24_331,
/// 1_816_210, 45_600_930_001]`, 3 649 dropped, 3 318 resent): samples
/// no longer swollen by loss recovery keep the RTO near the RTT, so
/// more frames are resent and far less time is lost waiting.
/// Re-recorded when every window became one lookahead wide (was
/// `[55_574, 8_778, 28_628, 2_129_995, 15_464_655_793]`, 4 315 dropped,
/// 4 051 resent): a quiet stretch used to widen the window, and a frame
/// staged in a widened window was delivered no earlier than its end.
#[test]
fn kv_board_under_loss_and_duplication_matches_the_recorded_counts() {
    let lossy = |cfg: DsmConfig| {
        let faults = FaultPlan::lossy(0.15, 0.05, 9);
        cfg.model(CostModel::lan_1992().with_faults(faults))
    };
    let res = kv_board_with(true, lossy);
    assert_eq!(
        counts(&res),
        [51_983, 8_552, 26_661, 1_988_449, 13_661_392_655]
    );
    assert_eq!(
        (res.stats.total_dropped(), res.stats.total_retransmits()),
        (4_000, 3_797)
    );
}

/// `erc` under the central barrier was re-recorded when every window
/// became one lookahead wide (was `[3_918, 482, 3_128, 162_445,
/// 214_411_360]`): a message staged in a widened window no longer waits
/// for that window's end.
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
            [3_918, 481, 3_128, 162_445, 213_162_480],
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

/// The determinism suites' jittered 1992 LAN.
fn jittered_lan() -> CostModel {
    CostModel::lan_1992().with_jitter(Dur::micros(50), 42)
}

/// The modern fabric with jitter: `rdma` read faults are NIC-level
/// events interleaving with two-sided traffic.
fn jittered_rdma_modern() -> CostModel {
    CostModel::rdma_modern().with_jitter(Dur::micros(5), 42)
}

/// 16 x 16 red-black SOR on eight nodes, every row in one 4 KiB page.
fn sor_8(proto: ProtocolKind, model: CostModel) -> RunResult<f64> {
    let p = sor::SorParams {
        n: 16,
        iters: 2,
        omega: 1.25,
    };
    let cfg = DsmConfig::new(8, proto)
        .model(model)
        .heap_bytes(p.heap_bytes());
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| sor::run(d, &p));
    let want = sor::reference_block_sums(&p, 8);
    for (i, &got) in res.results.iter().enumerate() {
        let want = want[i];
        assert!((got - want).abs() < 1e-9, "{proto} node {i}");
    }
    res
}

/// Re-recorded when every window became one lookahead wide (was sor
/// `[1_046, 280, 732, 851_919, 1_203_439]`, taskqueue `[318, 140, 186,
/// 112_519, 2_814_266]`): no delivery is floored to a widened window's
/// end any more.
#[test]
fn rdma_on_the_modern_fabric_matches_the_recorded_counts() {
    assert_eq!(
        counts(&sor_8(ProtocolKind::Rdma, jittered_rdma_modern())),
        [1_048, 283, 732, 851_919, 1_203_652],
        "sor"
    );

    let p = taskqueue::TaskQueueParams {
        tasks: 8,
        task_time: Dur::millis(2),
        produce_time: Dur::micros(50),
        poll: Dur::micros(500),
    };
    let cfg = DsmConfig::new(8, ProtocolKind::Rdma).model(jittered_rdma_modern());
    let cfg = Run::new(p, cfg).expect("rdma runs the queue").cfg;
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| taskqueue::run(d, &p));
    let digest = res
        .results
        .iter()
        .fold((0, 0), |(s, x), r| (s + r.id_sum, x ^ r.id_xor));
    assert_eq!(digest, taskqueue::expected_digest(&p));
    assert_eq!(
        counts(&res),
        [319, 141, 186, 112_519, 2_814_091],
        "taskqueue"
    );
}

#[test]
fn obj_chase_matches_the_recorded_counts() {
    let p = chase::ChaseParams {
        chain_len: 12,
        rounds: 3,
        think: Dur::micros(200),
    };
    let (heap, chains) = chase::build_obj_chains(&p, 8);
    let cfg = DsmConfig::new(8, ProtocolKind::Obj)
        .model(jittered_lan())
        .heap_bytes(p.heap_bytes(8))
        .objects(heap.table());
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| chase::run_obj(d, &p, &chains));
    assert!(res.results.iter().all(|&sum| sum == p.expected()));
    assert_eq!(counts(&res), [1_408, 961, 216, 3_088, 48_987_726]);
}

/// 20 % drop, 10 % duplication and delay spikes: every count below
/// includes the reliable transport's acks and retransmissions.
/// Re-recorded when the transport began to defer its standalone acks,
/// which reorders each link's frames and so which of them the seeded
/// stream drops (was lrc `[770, 123, 445, 216_215, 2_058_188_903]`, 87
/// dropped, 77 resent; ivy-fixed `[1_453, 128, 959, 537_483,
/// 5_372_479_582]`, 196 and 172). Re-recorded again when every window
/// became one lookahead wide (was lrc `[855, 123, 423, 228_252,
/// 3_176_058_728]`; ivy-fixed `[1_669, 124, 889, 514_759,
/// 6_151_391_268]`, 173 dropped, 153 resent): a frame staged in a
/// widened window used to be delivered no earlier than its end.
#[test]
fn sor_under_heavy_loss_matches_the_recorded_counts() {
    let heavy = FaultPlan::lossy(0.20, 0.10, 1234).with_spikes(0.2, Dur::millis(5));
    for (proto, want, dropped, rexmit) in [
        (
            ProtocolKind::Lrc,
            [855, 123, 423, 228_252, 3_171_021_106],
            83,
            81,
        ),
        (
            ProtocolKind::IvyFixed,
            [1_665, 124, 883, 510_460, 6_143_089_100],
            170,
            148,
        ),
    ] {
        let res = sor_8(proto, jittered_lan().with_faults(heavy.clone()));
        assert_eq!(counts(&res), want, "{proto}");
        assert_eq!(
            (res.stats.total_dropped(), res.stats.total_retransmits()),
            (dropped, rexmit),
            "{proto}"
        );
    }
}

/// `scabd`, four nodes with a 256-byte page each; node 2 crashes at
/// 900 us and reboots at 2.5 ms while every node writes its slot, meets
/// at a barrier and sums all four, four times over. Re-recorded when
/// the transport began to defer its standalone acks (was `[1_377, 116,
/// 953, 113_244, 152_775_052]`): 26 fewer messages, one ack timer per
/// owed ack in the events.
#[test]
fn scabd_crash_and_recovery_matches_the_recorded_counts() {
    const PAGE: usize = 256;
    let at = |us| SimTime(Dur::micros(us).as_nanos());
    let plan = FaultPlan::NONE.with_crash(2, at(900), Some(at(2500)));
    let cfg = DsmConfig::new(4, ProtocolKind::Scabd)
        .model(jittered_lan().with_faults(plan))
        .heap_bytes(4 * PAGE)
        .page_size(PAGE);
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| {
        let me = d.id().0 as usize;
        let mut sum = 0;
        for it in 0..4 {
            d.write_u64(GlobalAddr(me * PAGE + it * 8), (me * 1000 + it) as u64);
            d.barrier(2 * it as u32);
            sum = (0..4)
                .map(|n| d.read_u64(GlobalAddr(n * PAGE + it * 8)))
                .sum();
            d.barrier(2 * it as u32 + 1);
        }
        sum
    });
    assert_eq!(res.results, [6_012; 4]);
    assert_eq!((res.stats.crashes, res.stats.recoveries), (1, 1));
    assert_eq!(counts(&res), [1_715, 116, 927, 112_620, 147_538_238]);
}

/// The benchmark's `sim_matmul_hits` board at its quick shape: `n` = 96
/// on eight `ivy-fixed` nodes, with a digest of every node's block sum,
/// bit for bit. Recorded on the parent of the PR that let a read hit
/// lend the frame's bytes instead of copying them, which `matmul`'s B
/// rows take. Re-recorded when every window became one lookahead wide
/// (was `[1_318, 423, 745, 843_636, 440_911_840]`): a message staged in
/// a widened window no longer waits for that window's end.
#[test]
fn matmul_quick_matches_the_recorded_counts() {
    let p = matmul::MatmulParams { n: 96 };
    let cfg = DsmConfig::new(8, ProtocolKind::IvyFixed)
        .model(CostModel::lan_1992())
        .heap_bytes(p.heap_bytes());
    let res = dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| matmul::run(d, &p));
    let want = matmul::reference_block_sums(&p, 8);
    for (i, &got) in res.results.iter().enumerate() {
        let want = want[i];
        assert!((got - want).abs() < 1e-9, "node {i}");
    }
    let sums = res
        .results
        .iter()
        .fold(0u64, |d, s| d.rotate_left(7) ^ s.to_bits());
    assert_eq!(
        (counts(&res), sums),
        (
            [1_322, 427, 745, 843_636, 438_462_240],
            0xa097_c3b7_6a30_8326
        )
    );
}
