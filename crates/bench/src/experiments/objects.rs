//! E22 — object-granularity coherence (`obj`) vs page protocols.
//!
//! Two parts, both comparing the object protocol against the page
//! suite at identical computed results:
//!
//! * **False sharing** (the E5 kernel, packed per-node counters): page
//!   protocols pay coherence for sharing the counters never had; the
//!   object build's coherence unit *is* the counter, so the traffic
//!   vanishes. The run asserts `obj` eliminates ≥90% of ivy-fixed's
//!   messages.
//! * **Pointer chasing** (linked 16-byte elements, chains interleaved
//!   across pages): whole-page transfers and cross-chain invalidation
//!   versus one-object ownership migration. The run asserts `obj`
//!   finishes ahead of every page protocol.

use super::{checked, Scale};
use crate::table::{print_table, xs_of, Series};
use dsm_apps::{chase, false_sharing, Words};
use dsm_core::{CostModel, Dsm, DsmConfig, Dur, ProtocolKind, RunResult};

/// Page protocols `obj` is compared against (the E5 set).
const PAGE_PROTOS: [ProtocolKind; 5] = [
    ProtocolKind::IvyFixed,
    ProtocolKind::Update,
    ProtocolKind::Erc,
    ProtocolKind::Lrc,
    ProtocolKind::Entry,
];

pub fn e22_obj(scale: Scale) {
    false_sharing_part(scale);
    chase_part(scale);
}

/// Part A: E5's kernel at one adversarial page size (several 64-byte
/// strided counters per 1 KiB page).
fn false_sharing_part(scale: Scale) {
    let n = scale.pick(4u32, 8);
    // Think time above the network round trip, so under a
    // single-writer protocol every increment re-faults the page (the
    // page leaves while the node "computes"). This is the steady-state
    // ping-pong regime E5 measures at its larger page sizes.
    let p = false_sharing::FalseSharingParams {
        iters: scale.pick(30, 60),
        stride: 64,
        think: Dur::micros(1000),
    };
    let page = 1024usize;
    let useful_writes = (n as usize * p.iters) as f64;

    let mut rows: Vec<Series> = Vec::new();
    let mut msgs_of = std::collections::HashMap::new();
    let mut push = |name: &str, msgs: u64, bytes: u64, ms: f64| {
        let mut s = Series::new(name);
        s.push(msgs as f64);
        s.push(bytes as f64 / 1024.0);
        s.push(ms);
        s.push(bytes as f64 / useful_writes);
        rows.push(s);
    };

    for proto in PAGE_PROTOS {
        let cfg = DsmConfig::new(n, proto)
            .heap_bytes(p.heap_bytes(n as usize).max(page))
            .page_size(page)
            .max_events(100_000_000);
        let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| false_sharing::run(dsm, &p));
        assert!(res.results.iter().all(|&v| v == p.iters as u64));
        msgs_of.insert(proto.name(), res.stats.total_msgs());
        push(
            proto.name(),
            res.stats.total_msgs(),
            res.stats.total_bytes(),
            res.end_time.as_millis_f64(),
        );
    }

    let (heap, counters) = false_sharing::build_obj_counters(n);
    let cfg = DsmConfig::new(n, ProtocolKind::Obj)
        .heap_bytes(p.heap_bytes(n as usize).max(page))
        .page_size(page)
        .objects(heap.table())
        .max_events(100_000_000);
    let res = dsm_core::run_dsm(&cfg, move |dsm: &Dsm<'_>| {
        false_sharing::run_obj(dsm, &p, &counters)
    });
    assert!(res.results.iter().all(|&v| v == p.iters as u64));
    let obj_msgs = res.stats.total_msgs();
    push(
        "obj",
        obj_msgs,
        res.stats.total_bytes(),
        res.end_time.as_millis_f64(),
    );

    print_table(
        &format!("E22a: false sharing at {page}B pages, stride 64 — obj vs page protocols"),
        "metric",
        &xs_of(&["msgs", "kbytes", "time ms", "B/write"]),
        &rows,
    );
    let ivy = msgs_of[ProtocolKind::IvyFixed.name()];
    let eliminated = 1.0 - obj_msgs as f64 / ivy as f64;
    println!(
        "E22a: obj eliminates {:.1}% of ivy-fixed's messages ({ivy} -> {obj_msgs}) at identical results\n",
        eliminated * 100.0
    );
    assert!(
        eliminated >= 0.9,
        "obj must eliminate >=90% of ivy-fixed's false-sharing messages (got {:.1}%)",
        eliminated * 100.0
    );
}

/// One chase run per page protocol, then `obj` (which runs it over
/// objects): each with its name and result. `model` overrides the
/// `DSM_NET`-or-1992 default.
fn chase_runs(
    n: u32,
    p: chase::ChaseParams,
    model: Option<CostModel>,
) -> Vec<(&'static str, RunResult<Words>)> {
    let protos = PAGE_PROTOS.into_iter().chain([ProtocolKind::Obj]);
    protos
        .map(|proto| {
            let cfg = DsmConfig::new(n, proto)
                .page_size(1024)
                .max_events(100_000_000);
            let cfg = match &model {
                Some(m) => cfg.model(m.clone()),
                None => cfg,
            };
            (proto.name(), checked("E22b", chase::Chase::from(p), cfg))
        })
        .collect()
}

/// Part B: pointer chasing over interleaved chains.
fn chase_part(scale: Scale) {
    let n = scale.pick(4u32, 8);
    let p = chase::ChaseParams {
        chain_len: scale.pick(16, 32),
        rounds: scale.pick(4, 8),
        think: Dur::micros(5),
    };

    // The table: whatever era `DSM_NET` names.
    let rows: Vec<Series> = chase_runs(n, p, None)
        .iter()
        .map(|(name, res)| {
            let mut s = Series::new(*name);
            s.push(res.end_time.as_millis_f64());
            s.push(res.stats.total_msgs() as f64);
            s.push(res.stats.total_bytes() as f64 / 1024.0);
            s
        })
        .collect();
    print_table(
        &format!(
            "E22b: pointer chase ({} elems/chain, {} rounds) — obj vs page protocols",
            p.chain_len, p.rounds
        ),
        "metric",
        &xs_of(&["time ms", "msgs", "kbytes"]),
        &rows,
    );

    // The claim is a 1992-LAN statement — moving a 16-byte element
    // beats moving its 1 KiB page while a byte costs 0.8 µs on the
    // wire — so it is asserted on that network, whatever the table
    // above ran on. Once a message costs microseconds `entry` overtakes
    // `obj` (EXPERIMENTS.md, E22).
    let lan = chase_runs(n, p, Some(CostModel::lan_1992()));
    let (_, obj) = lan.last().expect("obj runs last");
    for (name, res) in &lan[..lan.len() - 1] {
        assert!(
            obj.end_time < res.end_time,
            "obj must beat every page protocol on the 1992 LAN chase \
             ({name} finished at {:?}, obj at {:?})",
            res.end_time,
            obj.end_time
        );
    }
}
