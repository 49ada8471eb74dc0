//! E16 — what does reliability cost? Sweep the message drop rate across
//! all eight protocols (duplication riding along at half the drop rate)
//! and measure the price the reliable transport pays to hide the loss:
//! retransmissions, standalone acks, added messages, and completion-time
//! overhead. The
//! application results are asserted byte-identical to the lossless run
//! at every point — that is the contract the transport sells.

use super::Scale;
use crate::table::{print_fault_table, print_table, Series};
use dsm_apps::{matmul, sor};
use dsm_core::{Dsm, DsmConfig, FaultPlan, NetStats, ProtocolKind, SimTime};

fn run_once(
    proto: ProtocolKind,
    nodes: u32,
    p: &sor::SorParams,
    plan: FaultPlan,
) -> (Vec<f64>, f64, NetStats) {
    let p = *p;
    let cfg = DsmConfig::new(nodes, proto)
        .heap_bytes(p.heap_bytes())
        .faults(plan)
        .max_events(2_000_000_000);
    let res = dsm_core::run_dsm(&cfg, move |d: &Dsm<'_>| sor::run(d, &p));
    (res.results, res.end_time.as_millis_f64(), res.stats)
}

/// E16 — reliability under a lossy network: overhead of drops + dups.
pub fn e16_faults(scale: Scale) {
    let nodes = scale.pick(2u32, 4);
    let p = sor::SorParams {
        n: scale.pick(16, 48),
        iters: scale.pick(2, 3),
        omega: 1.25,
    };
    let rates = scale.pick(vec![0.0, 0.10], vec![0.0, 0.05, 0.10, 0.20]);
    let seed = 11;

    let mut time_ms: Vec<Series> = Vec::new();
    let mut msgs: Vec<Series> = Vec::new();
    let mut rexmit: Vec<Series> = Vec::new();
    let mut acks: Vec<Series> = Vec::new();
    let mut showcase: Option<NetStats> = None;

    for proto in ProtocolKind::ALL {
        let mut t = Series::new(proto.name());
        let mut m = Series::new(proto.name());
        let mut r = Series::new(proto.name());
        let mut a = Series::new(proto.name());
        let baseline = run_once(proto, nodes, &p, FaultPlan::NONE);
        for &rate in &rates {
            let plan = if rate == 0.0 {
                FaultPlan::NONE
            } else {
                FaultPlan::lossy(rate, rate / 2.0, seed)
            };
            let (results, ms, stats) = run_once(proto, nodes, &p, plan);
            assert_eq!(
                results, baseline.0,
                "E16: {proto} diverged from lossless results at drop={rate}"
            );
            t.push(ms);
            m.push(stats.total_msgs() as f64);
            r.push(stats.total_retransmits() as f64);
            a.push(stats.kind("RelAck").count as f64);
            if proto == ProtocolKind::Lrc && rate == *rates.last().unwrap() {
                showcase = Some(stats);
            }
        }
        time_ms.push(t);
        msgs.push(m);
        rexmit.push(r);
        acks.push(a);
    }

    let xs: Vec<String> = rates.iter().map(|r| format!("{:.0}%", r * 100.0)).collect();
    print_table(
        "E16 (faults): SOR completion time under message loss (ms; dup = drop/2)",
        "drop rate",
        &xs,
        &time_ms,
    );
    print_table(
        "E16 (faults): total messages transmitted (incl. acks + resends)",
        "drop rate",
        &xs,
        &msgs,
    );
    print_table(
        "E16 (faults): retransmissions by the reliable transport",
        "drop rate",
        &xs,
        &rexmit,
    );
    print_table(
        "E16 (faults): standalone acks (RelAck) the transport sent",
        "drop rate",
        &xs,
        &acks,
    );
    if let Some(stats) = showcase {
        print_fault_table(
            &format!(
                "E16 (faults): per-kind fault breakdown — lrc at {} drop",
                xs.last().unwrap()
            ),
            &stats,
        );
    }
}

/// One E19 run: a fixed page size (one row per page, so every page has
/// a single writer — scabd's whole-page ABD registers must not race)
/// and an explicit fault plan.
fn run_e19(
    proto: ProtocolKind,
    nodes: u32,
    page: usize,
    heap: usize,
    plan: FaultPlan,
    app: impl Fn(&Dsm<'_>) -> f64 + Send + Sync,
) -> dsm_core::RunResult<f64> {
    let cfg = DsmConfig::new(nodes, proto)
        .heap_bytes(heap)
        .page_size(page)
        .faults(plan)
        .max_events(2_000_000_000);
    dsm_core::run_dsm(&cfg, app)
}

/// E19 — what does quorum replication cost, and what does it buy?
///
/// Cost: SC-ABD's two-phase majority quorums vs the IVY family on SOR
/// (E2) and matmul (E3) with no faults — the replication tax in time,
/// messages and bytes. Buy: under a seeded mid-run crash schedule,
/// scabd completes with a node dead (survivors keep forming 3-of-4
/// majorities) and converges bit-identically through a crash+recovery,
/// while IvyCentral's ownership directory dies with its manager and
/// the run is caught by the watchdog.
pub fn e19_crash(scale: Scale) {
    let nodes = 4u32; // majority = 3: tolerates one death
    let sor_p = sor::SorParams {
        n: scale.pick(16, 32),
        iters: scale.pick(2, 4),
        omega: 1.25,
    };
    let mm_p = matmul::MatmulParams {
        n: scale.pick(16, 32),
    };
    let sor_page = sor_p.n * 8;
    let mm_page = mm_p.n * 8;

    let run_sor = |proto: ProtocolKind, plan: FaultPlan| {
        run_e19(proto, nodes, sor_page, sor_p.heap_bytes(), plan, move |d| {
            sor::run(d, &sor_p)
        })
    };
    let run_mm = |proto: ProtocolKind, plan: FaultPlan| {
        run_e19(proto, nodes, mm_page, mm_p.heap_bytes(), plan, move |d| {
            matmul::run(d, &mm_p)
        })
    };

    // --- The replication tax, fault-free ---------------------------
    let protos = [
        ProtocolKind::IvyCentral,
        ProtocolKind::IvyDynamic,
        ProtocolKind::Scabd,
    ];
    let mut t_ms: Vec<Series> = Vec::new();
    let mut msgs: Vec<Series> = Vec::new();
    let mut bytes: Vec<Series> = Vec::new();
    let mut clean_sor = None;
    let mut clean_mm = None;
    let mut ivy_sor_span = 0u64;
    for proto in protos {
        let s = run_sor(proto, FaultPlan::NONE);
        let m = run_mm(proto, FaultPlan::NONE);
        let mut t = Series::new(proto.name());
        let mut mm = Series::new(proto.name());
        let mut b = Series::new(proto.name());
        t.push(s.end_time.as_millis_f64());
        t.push(m.end_time.as_millis_f64());
        mm.push(s.stats.total_msgs() as f64);
        mm.push(m.stats.total_msgs() as f64);
        b.push(s.stats.total_bytes() as f64);
        b.push(m.stats.total_bytes() as f64);
        t_ms.push(t);
        msgs.push(mm);
        bytes.push(b);
        if proto == ProtocolKind::IvyCentral {
            ivy_sor_span = s.end_time.as_nanos();
        }
        if proto == ProtocolKind::Scabd {
            clean_sor = Some(s);
            clean_mm = Some(m);
        }
    }
    let xs = vec!["sor".to_string(), "matmul".to_string()];
    print_table(
        "E19 (crash): replication tax, fault-free completion time (ms)",
        "app",
        &xs,
        &t_ms,
    );
    print_table(
        "E19 (crash): replication tax, total messages",
        "app",
        &xs,
        &msgs,
    );
    print_table(
        "E19 (crash): replication tax, total bytes",
        "app",
        &xs,
        &bytes,
    );
    let clean_sor = clean_sor.unwrap();
    let clean_mm = clean_mm.unwrap();

    // --- scabd under seeded crash schedules ------------------------
    // Crash the last node 2/5 of the way through the clean run;
    // "recover" brings it back at 3/5, "dead" never does.
    let victim = nodes - 1;
    let mut sched = vec![Series::new("sor"), Series::new("matmul")];
    let mut showcase: Option<NetStats> = None;
    for (i, clean) in [&clean_sor, &clean_mm].into_iter().enumerate() {
        let span = clean.end_time.as_nanos();
        assert!(span > 0, "E19: empty clean run");
        let at = SimTime(span * 2 / 5);
        let back = SimTime(span * 3 / 5);
        let run = |plan: FaultPlan| {
            if i == 0 {
                run_sor(ProtocolKind::Scabd, plan)
            } else {
                run_mm(ProtocolKind::Scabd, plan)
            }
        };
        let app = if i == 0 { "sor" } else { "matmul" };
        let rec = run(FaultPlan::NONE.with_crash(victim, at, Some(back)));
        assert_eq!(rec.stats.crashes, 1, "E19 {app}: crash never fired");
        assert_eq!(rec.stats.recoveries, 1, "E19 {app}: recovery never fired");
        assert_eq!(
            rec.results, clean.results,
            "E19 {app}: scabd diverged from the crash-free run across a crash+recovery"
        );
        let dead = run(FaultPlan::NONE.with_crash(victim, at, None));
        assert_eq!(dead.stats.crashes, 1);
        assert_eq!(dead.stats.recoveries, 0);
        sched[i].push(clean.end_time.as_millis_f64());
        sched[i].push(rec.end_time.as_millis_f64());
        sched[i].push(dead.end_time.as_millis_f64());
        if i == 0 {
            showcase = Some(rec.stats);
        }
    }
    print_table(
        "E19 (crash): scabd completion time under crash schedules (ms; node 3 at 40%)",
        "schedule",
        &["none".into(), "crash+recover".into(), "crash (dead)".into()],
        &sched,
    );
    print_fault_table(
        "E19 (crash): scabd sor crash+recover traffic and fault counters",
        &showcase.unwrap(),
    );

    // --- The control: IVY's manager state dies with node 0 ---------
    let at = SimTime(ivy_sor_span * 2 / 5);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sor(
            ProtocolKind::IvyCentral,
            FaultPlan::NONE.with_crash(0, at, None),
        )
    }));
    std::panic::set_hook(hook);
    assert!(
        outcome.is_err(),
        "E19: ivy-central survived its manager's permanent death — expected a watchdog verdict"
    );
    println!(
        "E19 (crash): ivy-central with node 0 (the manager) dead at 40%: \
         stalled — flagged by the deadlock watchdog, as expected\n"
    );
}
