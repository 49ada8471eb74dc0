//! The host-speed reference: a fixed piece of work, none of it the
//! repository's code, timed before and after every simulator
//! repetition on the repetition's own CPU.
//!
//! This box is a few CPUs of a shared host, and the host has fast and
//! slow phases that last minutes: identical simulator runs take 0.37 s
//! in one and 0.65 s in the next, per-process CPU time slows with wall
//! time, and no statistic over an 8 s (or 30 s) window sees through a
//! phase longer than the window (README, "Steadiness"). What holds
//! across phases is the ratio of a run's time to the time of this
//! reference taken beside it. The simulator workloads therefore report
//! host time in **reference seconds**: host seconds divided by how much
//! slower than [`NOMINAL_S`] the reference ran around them.
//!
//! The work is what a simulator run spends most of its host time on,
//! in kind: two threads on one CPU hand a token back and forth through
//! a mutex and a condition variable. Of the candidates tried (integer
//! and table work, page copies, hand-offs, and mixes of them) it alone
//! tracked all four simulator workloads through the phases; the
//! compute-only ones barely slow when the host does.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What [`run`] takes on this box in a calm phase (the 5th percentile
/// of 2000 runs over two hours): the reference second is the host
/// second of such a phase.
pub const NOMINAL_S: f64 = 0.0215;

const ROUNDS: u32 = 4000;

/// One side of the exchange: wait for the token to show `parity`, pass
/// it on.
fn side(pair: &(Mutex<u32>, Condvar), parity: u32) {
    let (token, passed) = pair;
    let mut turn = token.lock().expect("reference mutex");
    for _ in 0..ROUNDS {
        while *turn % 2 != parity {
            turn = passed.wait(turn).expect("reference mutex");
        }
        *turn += 1;
        passed.notify_one();
    }
}

/// Do the reference work on the calling thread's CPU (the second
/// thread inherits its affinity) and return the host seconds it took.
pub fn run() -> f64 {
    let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
    let theirs = Arc::clone(&pair);
    let t = Instant::now();
    let peer = std::thread::spawn(move || side(&theirs, 1));
    side(&pair, 0);
    peer.join().expect("reference thread");
    t.elapsed().as_secs_f64()
}
