//! Memory-behavior experiments: false sharing vs page size (E5),
//! ERC vs LRC traffic (E6), and diff-machinery costs (E9).

use super::{ms, msgs, sweep, Metric, Scale};
use crate::table::{print_table, xs_of, Series};
use dsm_apps::false_sharing;
use dsm_core::{Dsm, DsmConfig, Dur, GlobalAddr, ProtocolKind};
use dsm_mem::PageDiff;
use dsm_net::XorShift64;

/// E5 — false sharing: per-node private counters packed `stride` bytes
/// apart, runtime and traffic as the page size grows past the stride.
/// Expectation (Munin/TreadMarks motivation): single-writer invalidate
/// degrades sharply once several counters share a page; twin/diff
/// protocols stay flat.
pub fn e05_false_sharing(scale: Scale) {
    let n = scale.pick(4u32, 8);
    let p = false_sharing::FalseSharingParams {
        iters: scale.pick(10, 60),
        stride: 64,
        think: Dur::micros(100),
    };
    let page_sizes = scale.pick(vec![64usize, 256, 1024], vec![64, 256, 1024, 4096]);
    let protos = [
        ProtocolKind::IvyFixed,
        ProtocolKind::Update,
        ProtocolKind::Erc,
        ProtocolKind::Lrc,
        ProtocolKind::Entry,
    ];
    // Every run performs exactly this many application-level counter
    // increments; everything on the wire is coherence overhead.
    let useful_writes = (n as usize * p.iters) as f64;
    let metrics: [Metric<u64>; 3] = [
        (" — completion time (ms) vs page size", ms().1),
        (" — total messages vs page size", msgs().1),
        (" — wire bytes per useful write vs page size", &|_, r| {
            r.stats.total_bytes() as f64 / useful_writes
        }),
    ];
    let labels = protos.map(ProtocolKind::name);
    sweep(
        "E5: false sharing",
        "page bytes",
        &page_sizes,
        &labels,
        &metrics,
        |ps, c| {
            let heap = p.heap_bytes(n as usize).max(ps);
            let cfg = DsmConfig::new(n, protos[c])
                .heap_bytes(heap)
                .page_size(ps)
                .max_events(100_000_000);
            let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| false_sharing::run(dsm, &p));
            assert!(res.results.iter().all(|&v| v == p.iters as u64));
            res
        },
    );
}

/// E6 — eager vs lazy release consistency on a migratory lock-guarded
/// record: ERC flushes every release to the home and all copy holders,
/// LRC moves only what the next acquirer touches. Expectation
/// (TreadMarks vs Munin): LRC sends fewer messages and bytes, and the
/// gap grows with more nodes holding stale copies.
pub fn e06_erc_vs_lrc(scale: Scale) {
    let n = scale.pick(4u32, 8);
    let rounds = scale.pick(6, 30);
    let record_words = 64usize; // 512B record inside one page
    let protos = [ProtocolKind::Erc, ProtocolKind::Lrc];
    // Everybody reads the record once (building copysets), then the
    // record migrates around under a lock.
    let app = move |dsm: &Dsm<'_>| {
        let base = GlobalAddr(0);
        dsm.read_u64(base); // join the copyset
        dsm.barrier(0);
        for r in 0..rounds {
            dsm.acquire(1);
            let mut vals = dsm.read_u64s(base, record_words);
            for v in vals.iter_mut() {
                *v = v.wrapping_add(r as u64 + dsm.id().0 as u64);
            }
            dsm.write_u64s(base, &vals);
            dsm.release(1);
            dsm.compute(Dur::micros(300));
        }
        dsm.barrier(1);
    };
    let mut rows: Vec<Series> = vec![Series::new("erc"), Series::new("lrc")];
    let metrics = ["msgs", "kbytes", "time ms"];
    for (pi, &proto) in protos.iter().enumerate() {
        let cfg = DsmConfig::new(n, proto)
            .heap_bytes(4096)
            .page_size(1024)
            .max_events(100_000_000);
        let res = dsm_core::run_dsm(&cfg, app);
        rows[pi].push(res.stats.total_msgs() as f64);
        rows[pi].push(res.stats.total_bytes() as f64 / 1024.0);
        rows[pi].push(res.end_time.as_millis_f64());
    }
    // Transpose: metrics as x, protocols as series.
    print_table(
        "E6: migratory record under a lock — ERC vs LRC",
        "metric",
        &xs_of(&metrics),
        &rows,
    );
}

/// E9 — diff machinery: encoded size and break-even against shipping
/// the whole page, as a function of how much of the page was dirtied.
/// Expectation (TreadMarks): wire size ∝ dirtied bytes + per-run
/// overhead; break-even around half the page.
pub fn e09_diffs(scale: Scale) {
    let page = 4096usize;
    let fractions = scale.pick(
        vec![0.01, 0.1, 0.5, 1.0],
        vec![0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0],
    );
    let mut wire = Series::new("diff bytes");
    let mut runs = Series::new("runs");
    let mut ratio = Series::new("vs full page");
    let mut rng = XorShift64::new(99);
    for &f in &fractions {
        let twin = vec![0u8; page];
        let mut cur = twin.clone();
        let dirty = ((page as f64) * f) as usize;
        // Scattered dirty bytes — the adversarial layout for run
        // encoding.
        let mut touched = 0;
        while touched < dirty {
            let i = rng.below(page as u64) as usize;
            if cur[i] == 0 {
                cur[i] = (rng.below(255) + 1) as u8;
                touched += 1;
            }
        }
        let d = PageDiff::create(&twin, &cur);
        wire.push(d.wire_bytes() as f64);
        runs.push(d.run_count() as f64);
        ratio.push(d.wire_bytes() as f64 / page as f64);
    }
    let xs: Vec<String> = fractions
        .iter()
        .map(|f| format!("{:.0}%", f * 100.0))
        .collect();
    print_table(
        "E9: diff encoding vs fraction of page dirtied (4096B page, scattered bytes)",
        "dirtied",
        &xs,
        &[wire, runs, ratio],
    );
}
