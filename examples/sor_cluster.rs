//! Domain scenario: a scientific stencil code (red-black SOR) on a
//! simulated cluster — the workload page-based DSM was originally
//! pitched at. Sweeps node counts under three protocol generations
//! (IVY sequential consistency, Munin eager RC, TreadMarks lazy RC)
//! and reports paper-style speedups, messages, and bytes.
//!
//! ```sh
//! cargo run --release --example sor_cluster
//! ```

use dsm_apps::sor;
use dsm_core::{DsmConfig, Placement, ProtocolKind};

fn main() {
    let p = sor::SorParams {
        n: 512,
        iters: 3,
        omega: 1.25,
    };
    let protos = [ProtocolKind::IvyFixed, ProtocolKind::Erc, ProtocolKind::Lrc];
    let ns = [1u32, 2, 4, 8, 16];

    println!(
        "red-black SOR, {0}x{0} grid, {1} iterations, 1992 Ethernet model\n",
        p.n, p.iters
    );
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>12}",
        "nodes", "protocol", "time ms", "speedup", "msgs"
    );

    for proto in protos {
        let mut t1 = 0.0;
        for n in ns {
            let cfg = DsmConfig::new(n, proto)
                .heap_bytes(p.heap_bytes())
                .placement(Placement::Block)
                .max_events(200_000_000);
            let res = dsm_core::run_dsm(&cfg, move |dsm| sor::run(dsm, &p));
            // Verify against the sequential reference.
            let want = sor::reference_block_sums(&p, n as usize);
            for (i, &got) in res.results.iter().enumerate() {
                let want = want[i];
                assert!((got - want).abs() < 1e-9, "node {i} wrong");
            }
            let t = res.end_time.as_millis_f64();
            if n == 1 {
                t1 = t;
            }
            println!(
                "{:>6} {:>12} {:>10.1} {:>10.2} {:>12}",
                n,
                proto.name(),
                t,
                t1 / t,
                res.stats.total_msgs()
            );
        }
        println!();
    }
    println!("(results verified against the sequential reference at every point)");
}
