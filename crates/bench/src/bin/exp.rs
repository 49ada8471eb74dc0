//! Regenerates experiment tables (see EXPERIMENTS.md) on stdout:
//!
//! ```sh
//! exp e05_false_sharing            # one experiment, full size
//! exp e21_zipf --quick             # reduced size
//! exp all --quick                  # the whole suite, in report order
//! exp --list                       # every name
//! ```
//!
//! Names come from `dsm_bench::experiments::{REGISTRY, STANDALONE}`;
//! `all` is `REGISTRY` in order. The interconnect era comes from
//! `DSM_NET`.
use dsm_bench::experiments::{Experiment, REGISTRY, STANDALONE};
use dsm_bench::Scale;

fn experiments() -> impl Iterator<Item = &'static Experiment> {
    REGISTRY.iter().chain(STANDALONE)
}

fn usage() -> ! {
    eprintln!("usage: exp <name> [--quick] | exp all [--quick] | exp --list");
    eprintln!("names:");
    experiments().for_each(|(name, _)| eprintln!("  {name}"));
    std::process::exit(2);
}

fn main() {
    let (mut name, mut scale) = (None, Scale::Full);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--list" => return experiments().for_each(|(name, _)| println!("{name}")),
            other if name.is_none() && !other.starts_with('-') => name = Some(arg),
            _ => usage(),
        }
    }
    if name.as_deref() == Some("all") {
        return dsm_bench::run_all(scale);
    }
    let Some((_, run)) = experiments().find(|(n, _)| Some(*n) == name.as_deref()) else {
        usage()
    };
    run(scale);
}
