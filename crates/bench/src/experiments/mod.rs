//! The experiment suite: one function per table/figure in
//! EXPERIMENTS.md. Each prints its table(s) on stdout in the fixed
//! format of [`crate::table`]. [`REGISTRY`] names them; the `exp` binary
//! is a thin wrapper over it.

mod ablation;
mod batching;
mod eras;
mod faults;
mod memory;
mod meta;
mod objects;
mod scaling;
mod sync_and_vm;
mod zipf;

pub use ablation::{e13_nic_ablation, e14_lrc_lock_ablation};
pub use batching::e17_batching;
pub use eras::e20_eras;
pub use faults::{e16_faults, e19_crash};
pub use memory::{e05_false_sharing, e06_erc_vs_lrc, e09_diffs};
pub use meta::e18_lrc_meta;
pub use objects::e22_obj;
pub use scaling::{
    e01_managers, e02_sor, e02_sor_n1024, e03_matmul, e04_gauss, e11_entry_vs_lrc, e12_tsp, e15_fft,
};
pub use sync_and_vm::{e07_locks, e08_barriers, e10_vm_costs};
pub use zipf::e21_zipf;

/// Experiment sizing: `Quick` keeps every experiment under ~a second
/// (used by the smoke tests); `Full` reproduces the report shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A named experiment: what `exp <name>` looks up and runs.
pub type Experiment = (&'static str, fn(Scale));

/// The suite, in report order, under the names `exp <name>` takes. A
/// new experiment is one row here: [`run_all`] and `exp --list` follow.
pub const REGISTRY: &[Experiment] = &[
    ("e01_managers", e01_managers),
    ("e02_sor_speedup", e02_sor),
    ("e03_matmul_speedup", e03_matmul),
    ("e04_gauss_speedup", e04_gauss),
    ("e05_false_sharing", e05_false_sharing),
    ("e06_erc_vs_lrc", e06_erc_vs_lrc),
    ("e07_locks", e07_locks),
    ("e08_barriers", e08_barriers),
    ("e09_diffs", e09_diffs),
    ("e10_vm_costs", e10_vm_costs),
    ("e11_entry_vs_lrc", e11_entry_vs_lrc),
    ("e12_tsp", e12_tsp),
    ("e13_nic_ablation", e13_nic_ablation),
    ("e14_lrc_lock_ablation", e14_lrc_lock_ablation),
    ("e15_fft", e15_fft),
    ("e16_faults", e16_faults),
    ("e17_batching", e17_batching),
    ("e18_lrc_meta", e18_lrc_meta),
    ("e19_crash", e19_crash),
    ("e20_eras", e20_eras),
    ("e21_zipf", e21_zipf),
    ("e22_obj", e22_obj),
];

/// Runnable by name but outside the suite: the N=1024 smoke point has
/// a wall-clock budget of its own, so [`run_all`] leaves it out.
pub const STANDALONE: &[Experiment] = &[("e02_sor_n1024", e02_sor_n1024)];

/// Run every experiment of [`REGISTRY`] at the given scale.
pub fn run_all(scale: Scale) {
    for (_, run) in REGISTRY {
        run(scale);
    }
}
