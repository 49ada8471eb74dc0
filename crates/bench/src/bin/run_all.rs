//! Regenerate every experiment table. `--quick` for the fast variant;
//! `--json` additionally writes one `BENCH_<exp>.json` per instrumented
//! experiment (completion time, messages, bytes, and simulator
//! throughput per configuration) into the current directory;
//! `--workers N` spreads every simulation's kernel across N worker
//! threads (same numbers, less wall-clock — equivalent to setting
//! `DSM_WORKERS=N`).
//!
//! `--crash "node@t_us[:recover_us]"` / `--partition "a,b|c,d@t1..t2"`
//! (same syntax as `dsmrun`, repeatable) append one custom-schedule
//! scabd SOR run after the suite — a quick way to regenerate a fault
//! scenario's table without reaching for `dsmrun`.
//!
//! `--net <era>` (one of `dsm_core::CostModel::ERA_NAMES`) moves every
//! experiment that uses the default cost model to that interconnect
//! era — equivalent to setting `DSM_NET=<era>`. Era-specific figures
//! (E15's Ethernet-vs-ATM pair, E20's own sweep) pin their models
//! explicitly and are unaffected.
fn main() {
    let mut quick = false;
    let mut json = false;
    let mut common = dsm_bench::cli::CommonFlags::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            other => match common.take(other, &mut it) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("run_all: unknown flag {other}");
                    eprintln!(
                        "usage: run_all [--quick] [--json] {}",
                        dsm_bench::cli::CommonFlags::USAGE
                    );
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("run_all: {e}");
                    std::process::exit(2);
                }
            },
        }
    }
    // Experiments build their DsmConfigs deep inside the table
    // generators; the env defaults are the one hook they all read.
    if common.workers > 0 {
        std::env::set_var("DSM_WORKERS", common.workers.to_string());
    }
    if let Some(era) = &common.net {
        std::env::set_var("DSM_NET", era);
    }
    let (crashes, partitions) = (common.crashes, common.partitions);
    let scale = if quick {
        dsm_bench::Scale::Quick
    } else {
        dsm_bench::Scale::Full
    };
    if json {
        dsm_bench::json::enable();
    }
    dsm_bench::run_all(scale);
    if !crashes.is_empty() || !partitions.is_empty() {
        dsm_bench::experiments::custom_fault_run(scale, &crashes, &partitions);
    }
    dsm_bench::json::write_cwd_or_exit("run_all");
}
