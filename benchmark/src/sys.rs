//! The few things the benchmark asks the operating system for: which
//! CPUs it may run on, pinning to one of them, and peak resident size.

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, in ascending order. Read before
/// any pinning: children inherit the parent's mask, so each process
/// that pins itself is told the full list by its parent.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask buffer is MASK_WORDS * 8 bytes, as declared.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    assert!(rc == 0, "sched_getaffinity: {}", io::Error::last_os_error());
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and every thread it spawns from now
/// on) to `cpu`.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask buffer is MASK_WORDS * 8 bytes, as declared.
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    assert!(
        rc == 0,
        "sched_setaffinity({cpu}): {}",
        io::Error::last_os_error()
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
