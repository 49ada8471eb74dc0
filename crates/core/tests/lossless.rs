//! A lossless cluster run resends nothing: no retransmission timeout on
//! loopback is below the socket's RTO floor (`dsm_net::LOOPBACK_REL`),
//! which a busy host's late wake-up — of a peer's serving thread, or of
//! a deferred ack — stays under. It counts every node's retransmissions,
//! so it is alone in its binary: tests running beside it on a two-core
//! host would lengthen those wake-ups past any floor worth having.

use dsm_core::{run_in_threads, DsmConfig, GlobalAddr, ProtocolKind};

/// Four nodes share pages through misses, a lock and barriers.
#[test]
fn a_lossless_run_resends_nothing() {
    const ROUNDS: usize = 4;
    let ps = dsm_vm::os_page_size();
    let cfg = DsmConfig::new(4, ProtocolKind::IvyFixed)
        .heap_bytes(8 * ps)
        .page_size(ps);
    let run = run_in_threads(&cfg, |d| {
        let me = d.id().0 as usize;
        let mut sums = 0;
        for round in 0..ROUNDS {
            d.with_lock(0, |d| {
                let count = d.read_u64(GlobalAddr(0));
                d.write_u64(GlobalAddr(0), count + 1);
            });
            let page = (1 + round % 7) * ps;
            d.write_u64(GlobalAddr(page + 8 * me), (round * 10 + me) as u64);
            d.barrier(2 * round as u32);
            sums += (0..4)
                .map(|r| d.read_u64(GlobalAddr(page + 8 * r)))
                .sum::<u64>();
            d.barrier(2 * round as u32 + 1);
        }
        (d.read_u64(GlobalAddr(0)), sums)
    });
    let sums = (0..ROUNDS).map(|r| 40 * r as u64 + 6).sum::<u64>();
    assert_eq!(run.results, [(4 * ROUNDS as u64, sums); 4]);
    for (rank, stats) in run.stats.iter().enumerate() {
        assert_eq!(stats.total_retransmits(), 0, "rank {rank} resent:\n{stats}");
    }
}
