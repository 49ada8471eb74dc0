//! Domain scenario: a master–worker task farm over a lock-protected
//! shared queue — the canonical mutual-exclusion-bound DSM workload —
//! under entry consistency (Midway-style: the queue is *bound to the
//! lock* and rides its grants) vs lazy release consistency.
//!
//! ```sh
//! cargo run --release --example task_farm
//! ```

use dsm_apps::taskqueue::{self, TaskQueueParams};
use dsm_apps::Run;
use dsm_core::{DsmConfig, Dur, ProtocolKind};

fn main() {
    let p = TaskQueueParams {
        tasks: 64,
        task_time: Dur::millis(2),
        produce_time: Dur::micros(100),
        poll: Dur::micros(500),
    };
    let (want_sum, want_xor) = taskqueue::expected_digest(&p);

    println!(
        "task farm: {} tasks of 2ms, 1 producer + workers\n",
        p.tasks
    );
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>12}",
        "nodes", "protocol", "time ms", "msgs", "kbytes"
    );
    for proto in [ProtocolKind::Entry, ProtocolKind::Lrc] {
        for n in [2u32, 4, 8] {
            let cfg = DsmConfig::new(n, proto)
                .page_size(1024)
                .max_events(100_000_000);
            // The app's machine: its heap, the queue bound to its lock.
            let cfg = Run::new(p, cfg).expect("both rows run the queue").cfg;
            let res = dsm_core::run_dsm(&cfg, move |dsm| taskqueue::run(dsm, &p));
            // Exactly-once verification across the whole farm.
            let sum: u64 = res.results.iter().map(|r| r.id_sum).sum();
            let xor: u64 = res.results.iter().fold(0, |a, r| a ^ r.id_xor);
            assert_eq!(
                (sum, xor),
                (want_sum, want_xor),
                "lost or duplicated tasks!"
            );
            println!(
                "{:>6} {:>10} {:>12.1} {:>10} {:>12.1}",
                n,
                proto.name(),
                res.end_time.as_millis_f64(),
                res.stats.total_msgs(),
                res.stats.total_bytes() as f64 / 1024.0,
            );
        }
        println!();
    }
    println!("every task executed exactly once under both protocols;");
    println!("entry consistency ships the queue with the lock grant itself.");
}
