//! The defining trick of page-based DSM, for real: plain loads and
//! stores against mapped memory, kept coherent by `mprotect` +
//! `SIGSEGV`. No simulation — the faults below are actual page faults
//! on this machine, serviced by the `dsm-vm` engine and by cluster
//! mode's protocol stack.
//!
//! ```sh
//! cargo run --release --example transparent_vm
//! ```

use dsm_core::{run_in_threads, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_vm::{os_page_size, run_vm, VmConfig, VmMode};

fn main() {
    // Part 1: write-invalidate — sequential consistency. Four threads
    // ("nodes") with private views of 16 shared pages.
    println!("--- dsm-vm invalidate (IVY-style, sequentially consistent)");
    let cfg = VmConfig::new(4, 16, VmMode::Invalidate);
    let res = run_vm(cfg, |node| {
        let me = node.id();
        // A plain store. If this view lacks the page, it faults, the
        // service thread fetches the owner's copy, and the store
        // retries — transparently.
        node.write::<u64>(me * 8, (me as u64 + 1) * 11);
        node.barrier();
        (0..4).map(|i| node.read::<u64>(i * 8)).sum::<u64>()
    });
    println!(
        "per-node sums: {:?} (expect 11+22+33+44 = 110)\n",
        res.results
    );

    // Part 2: multiple concurrent writers of ONE page (maximal false
    // sharing) under lazy release consistency: four cluster nodes as
    // threads of this process, over loopback UDP. A write fault twins
    // the page; the barrier ships each node's diff.
    println!("--- cluster lrc (TreadMarks-style multiple writers)");
    let ps = os_page_size();
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
