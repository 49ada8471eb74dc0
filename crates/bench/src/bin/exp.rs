//! Regenerates one experiment table (see EXPERIMENTS.md):
//!
//! ```sh
//! exp e05_false_sharing            # full size
//! exp e21_zipf --quick --json      # reduced size; also writes BENCH_e21_zipf.json
//! exp --list                       # every name
//! ```
//!
//! Names come from `dsm_bench::experiments::{REGISTRY, STANDALONE}`;
//! `--json` writes one `BENCH_<exp>.json` per instrumented experiment
//! into the current directory. Worker count and interconnect era come
//! from `DSM_WORKERS` / `DSM_NET` (`run_all` has flags for both).
use dsm_bench::experiments::{Experiment, REGISTRY, STANDALONE};
use dsm_bench::Scale;

fn experiments() -> impl Iterator<Item = &'static Experiment> {
    REGISTRY.iter().chain(STANDALONE)
}

fn usage() -> ! {
    eprintln!("usage: exp <name> [--quick] [--json] | exp --list");
    eprintln!("names:");
    experiments().for_each(|(name, _)| eprintln!("  {name}"));
    std::process::exit(2);
}

fn main() {
    let (mut name, mut scale, mut json) = (None, Scale::Full, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--json" => json = true,
            "--list" => return experiments().for_each(|(name, _)| println!("{name}")),
            other if name.is_none() && !other.starts_with('-') => name = Some(arg),
            _ => usage(),
        }
    }
    let Some((_, run)) = experiments().find(|(n, _)| Some(*n) == name.as_deref()) else {
        usage()
    };
    if json {
        dsm_bench::json::enable();
    }
    run(scale);
    dsm_bench::json::write_cwd_or_exit("exp");
}
