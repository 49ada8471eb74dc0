//! The defining trick of page-based DSM, for real: plain loads and
//! stores against mapped memory whose per-page rights `mprotect` sets,
//! kept coherent by cluster mode's protocol stack — four nodes as
//! threads of this process, over loopback UDP. No simulation: a page a
//! node's view lacks comes over a real socket.
//!
//! ```sh
//! cargo run --release --example transparent_vm
//! ```

use dsm_core::{run_in_threads, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_vm::os_page_size;

fn main() {
    // Part 1: write-invalidate — sequential consistency. Four nodes
    // with private views of the shared pages.
    println!("--- cluster ivy-fixed (IVY-style, sequentially consistent)");
    let ps = os_page_size();
    let cfg = DsmConfig::new(4, ProtocolKind::IvyFixed)
        .heap_bytes(16 * ps)
        .page_size(ps);
    let results = run_in_threads(&cfg, |d| {
        let me = d.id().0 as usize;
        // A plain store. If this view lacks the page, the protocol
        // fetches it from its owner, invalidates the other copies, and
        // the store goes through — transparently.
        d.write_u64(GlobalAddr(me * 8), (me as u64 + 1) * 11);
        d.barrier(0);
        (0..4).map(|i| d.read_u64(GlobalAddr(i * 8))).sum::<u64>()
    })
    .results;
    println!("per-node sums: {results:?} (expect 11+22+33+44 = 110)\n");

    // Part 2: multiple concurrent writers of ONE page (maximal false
    // sharing) under lazy release consistency: four cluster nodes as
    // threads of this process, over loopback UDP. A write fault twins
    // the page; the barrier ships each node's diff.
    println!("--- cluster lrc (TreadMarks-style multiple writers)");
    let cfg = DsmConfig::new(4, ProtocolKind::Lrc)
        .heap_bytes(4 * ps)
        .page_size(ps);
    let results = run_in_threads(&cfg, |d| {
        let me = d.id().0 as usize;
        // Everyone writes its own quarter of page 0 concurrently.
        let q = ps / 4;
        for i in 0..8 {
            d.write_u64(GlobalAddr(me * q + i * 8), (me * 100 + i) as u64);
        }
        d.barrier(0);
        (0..4)
            .all(|m| (0..8).all(|i| d.read_u64(GlobalAddr(m * q + i * 8)) == (m * 100 + i) as u64))
    })
    .results;
    println!("all nodes see everyone's writes: {results:?}");
}
