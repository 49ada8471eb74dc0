//! E16 — what does reliability cost? Sweep the message drop rate across
//! all eight protocols (duplication riding along at half the drop rate)
//! and measure the price the reliable transport pays to hide the loss:
//! retransmissions, standalone acks, added messages, and completion-time
//! overhead. The
//! application results are asserted byte-identical to the lossless run
//! at every point — that is the contract the transport sells.

use super::{checked, ms, msgs, sweep, Metric, Scale};
use crate::table::{print_fault_table, print_table, Series};
use dsm_apps::{matmul, sor, App, Run, Words};
use dsm_core::{DsmConfig, FaultPlan, NetStats, ProtocolKind, RunResult, SimTime};

/// A drop rate, as its table prints it.
#[derive(Clone, Copy)]
struct Pct(f64);

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

/// E16 — reliability under a lossy network: overhead of drops + dups.
pub fn e16_faults(scale: Scale) {
    let nodes = scale.pick(2u32, 4);
    let p = sor::SorParams {
        n: scale.pick(16, 48),
        iters: scale.pick(2, 3),
        omega: 1.25,
    };
    let rates = scale.pick(&[0.0, 0.10][..], &[0.0, 0.05, 0.10, 0.20]);
    let rates: Vec<Pct> = rates.iter().map(|&r| Pct(r)).collect();
    let seed = 11;
    let run_once = |proto, plan| {
        let cfg = DsmConfig::new(nodes, proto)
            .faults(plan)
            .max_events(2_000_000_000);
        checked("E16", p, cfg)
    };
    let protos = ProtocolKind::ALL;
    let metrics: [Metric; 4] = [
        (
            "SOR completion time under message loss (ms; dup = drop/2)",
            ms().1,
        ),
        (
            "total messages transmitted (incl. acks + resends)",
            msgs().1,
        ),
        ("retransmissions by the reliable transport", &|_, r| {
            r.stats.total_retransmits() as f64
        }),
        ("standalone acks (RelAck) the transport sent", &|_, r| {
            r.stats.kind("RelAck").count as f64
        }),
    ];
    let labels = protos.map(ProtocolKind::name);
    let title = "E16 (faults): ";
    // `sweep` runs a protocol's rates in order, and the first is 0 %:
    // its run is the lossless one each lossy run must match.
    let mut lossless = Vec::new();
    let runs = sweep(title, "drop rate", &rates, &labels, &metrics, |rate, c| {
        if rate.0 == 0.0 {
            let res = run_once(protos[c], FaultPlan::NONE);
            lossless = res.results.clone();
            return res;
        }
        let res = run_once(protos[c], FaultPlan::lossy(rate.0, rate.0 / 2.0, seed));
        assert_eq!(
            res.results, lossless,
            "E16: {} diverged from lossless results at drop={}",
            protos[c], rate.0
        );
        res
    });
    let lrc = protos.iter().position(|&p| p == ProtocolKind::Lrc);
    let (last, lrc) = (rates[rates.len() - 1], &runs[lrc.expect("lrc")]);
    print_fault_table(
        &format!("E16 (faults): per-kind fault breakdown — lrc at {last} drop"),
        &lrc[lrc.len() - 1].stats,
    );
}

/// One E19 run: a fixed page size (one row per page, so every page has
/// a single writer — scabd's whole-page ABD registers must not race,
/// and [`Run::new`] refuses a shape where they would) and an explicit
/// fault plan. A run whose nodes all live to its end is held to the
/// app's verdict; one that loses a node for good has no answer to hold
/// it to (the survivors go on from the rows the dead node stopped
/// writing).
fn run_e19<A: App>(
    app: A,
    proto: ProtocolKind,
    nodes: u32,
    page: usize,
    plan: FaultPlan,
) -> RunResult<Words> {
    let dead = plan.crashes.iter().any(|c| c.recover.is_none());
    let cfg = DsmConfig::new(nodes, proto)
        .page_size(page)
        .faults(plan)
        .max_events(2_000_000_000);
    if !dead {
        return checked("E19", app, cfg);
    }
    let run = Run::new(app, cfg).expect("E19: one row per page");
    dsm_core::run_dsm(&run.cfg, |d| run.app.sim_program(d))
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
    let run_sor = |proto, plan| run_e19(sor_p, proto, nodes, sor_p.n * 8, plan);
    let run_mm = |proto, plan| run_e19(mm_p, proto, nodes, mm_p.n * 8, plan);

    // --- The replication tax, fault-free ---------------------------
    let protos = [
        ProtocolKind::IvyCentral,
        ProtocolKind::IvyDynamic,
        ProtocolKind::Scabd,
    ];
    let metrics: [Metric; 3] = [
        ("fault-free completion time (ms)", ms().1),
        ("total messages", msgs().1),
        ("total bytes", &|_, r| r.stats.total_bytes() as f64),
    ];
    let labels = protos.map(ProtocolKind::name);
    let title = "E19 (crash): replication tax, ";
    let runs = sweep(
        title,
        "app",
        &["sor", "matmul"],
        &labels,
        &metrics,
        |app, c| match app {
            "sor" => run_sor(protos[c], FaultPlan::NONE),
            _ => run_mm(protos[c], FaultPlan::NONE),
        },
    );
    let ivy_sor_span = runs[0][0].end_time.as_nanos();
    let (clean_sor, clean_mm) = (&runs[2][0], &runs[2][1]);

    // --- scabd under seeded crash schedules ------------------------
    // Crash the last node 2/5 of the way through the clean run;
    // "recover" brings it back at 3/5, "dead" never does.
    let victim = nodes - 1;
    let mut sched = vec![Series::new("sor"), Series::new("matmul")];
    let mut showcase: Option<NetStats> = None;
    for (i, clean) in [clean_sor, clean_mm].into_iter().enumerate() {
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
