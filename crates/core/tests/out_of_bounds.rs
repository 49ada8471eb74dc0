//! An access whose end does not fit a `usize` is out of bounds like any
//! other: it panics with the runtime's "out of bounds" message — not an
//! arithmetic overflow, and not a missing frame further in — with the
//! hit fast path on or off, on real pages too, in every build profile.

use dsm_core::{Dsm, DsmConfig, Engine, GlobalAddr, ProtocolKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Eight bytes at this address end four bytes past `usize::MAX`.
const NEAR_MAX: GlobalAddr = GlobalAddr(usize::MAX - 3);

/// Node 0 reads or writes the u64 at `NEAR_MAX`.
fn access(d: &Dsm<'_, impl Engine>, write: bool) {
    if d.id().0 == 0 {
        match write {
            true => d.write_u64(NEAR_MAX, 1),
            false => drop(d.read_u64(NEAR_MAX)),
        }
    }
}

/// What `run` panics with.
fn panic_of(run: impl FnOnce()) -> String {
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
    let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed).heap_bytes(4096);
    for (name, write) in [("read", false), ("write", true)] {
        let on_sim = |fast_path| {
            let cfg = cfg.clone().page_size(256).fast_path(fast_path);
            panic_of(|| drop(dsm_core::run_dsm(&cfg, |d| access(d, write))))
        };
        let on_pages = || {
            let cfg = cfg.clone().page_size(dsm_vm::os_page_size());
            panic_of(|| drop(dsm_core::run_in_threads(&cfg, |d| access(d, write))))
        };
        for (engine, msg) in [
            ("the fast path", on_sim(true)),
            ("the op path", on_sim(false)),
            ("real pages", on_pages()),
        ] {
            assert!(
                msg.contains(&format!("{name} [")) && msg.contains("out of bounds"),
                "{name} on {engine}: {msg:?}"
            );
        }
    }
}
