//! An access whose end does not fit a `usize` is out of bounds like any
//! other: it panics with the runtime's "out of bounds" message — not an
//! arithmetic overflow, and not a missing frame further in — with the
//! hit fast path on or off, in every build profile.

use dsm_core::{Dsm, DsmConfig, GlobalAddr, ProtocolKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Eight bytes at this address end four bytes past `usize::MAX`.
const NEAR_MAX: GlobalAddr = GlobalAddr(usize::MAX - 3);

/// What node 0's `op` panics with, re-raised out of the run.
fn panic_of(fast_path: bool, op: fn(&Dsm<'_>)) -> String {
    let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
        .heap_bytes(4096)
        .page_size(256)
        .fast_path(fast_path);
    let run = || {
        dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| {
            if d.id().0 == 0 {
                op(d);
            }
        })
    };
    let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the access must panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

#[test]
fn an_access_ending_past_usize_max_is_out_of_bounds() {
    let read: fn(&Dsm<'_>) = |d| {
        d.read_u64(NEAR_MAX);
    };
    let write: fn(&Dsm<'_>) = |d| d.write_u64(NEAR_MAX, 1);
    for fast_path in [true, false] {
        for (name, op) in [("read", read), ("write", write)] {
            let msg = panic_of(fast_path, op);
            assert!(
                msg.contains(&format!("{name} [")) && msg.contains("out of bounds"),
                "{name} with fast_path={fast_path}: {msg:?}"
            );
        }
    }
}
