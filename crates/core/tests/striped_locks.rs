//! Striped-lock counters on a cluster run as threads of this process,
//! under every protocol cluster mode runs. An acquire completes on the
//! caller's thread when the lock is at hand, in the serving loop when
//! it waits on a peer, and locks move between nodes all the time: a
//! lost increment or a call left unanswered shows here.

use dsm_core::{run_in_threads, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_vm::os_page_size;

const NODES: u32 = 4;
const LOCKS: u32 = 16;
const INCREMENTS: u32 = 200;

/// The lock node `rank` takes for its `i`-th increment: each node walks
/// every stripe (3 is prime to 16), from its own starting point.
fn stripe(rank: u32, i: u32) -> u32 {
    (rank * 5 + i * 3) % LOCKS
}

#[test]
fn striped_lock_counters_keep_every_increment() {
    let ps = os_page_size();
    // One counter page per lock; node `r` adds `r + 1` each time.
    let counter = |lock: u32| GlobalAddr(lock as usize * ps);
    let mut want = vec![0u64; LOCKS as usize];
    for rank in 0..NODES {
        for i in 0..INCREMENTS {
            want[stripe(rank, i) as usize] += u64::from(rank + 1);
        }
    }
    let protocols: Vec<ProtocolKind> = ProtocolKind::EVERY
        .into_iter()
        .filter(|kind| kind.facts().page_fault_driven.is_ok())
        .collect();
    assert!(protocols.len() >= 2, "{protocols:?}");
    for kind in protocols {
        let cfg = DsmConfig::new(NODES, kind)
            .heap_bytes(LOCKS as usize * ps)
            .page_size(ps);
        let results = run_in_threads(&cfg, |d| {
            let rank = d.id().0;
            for i in 0..INCREMENTS {
                let lock = stripe(rank, i);
                d.with_lock(lock, |d| {
                    let v = d.read_u64(counter(lock));
                    d.write_u64(counter(lock), v + u64::from(rank + 1));
                });
            }
            d.barrier(0);
            (0..LOCKS)
                .map(|l| d.read_u64(counter(l)))
                .collect::<Vec<_>>()
        });
        for (rank, seen) in results.iter().enumerate() {
            assert_eq!(seen, &want, "{kind}: node {rank}");
        }
    }
}
