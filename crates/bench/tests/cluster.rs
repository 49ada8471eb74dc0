//! Loopback cluster tests: drive the `dsm-cluster` launcher end to
//! end. Each run spawns real OS processes hosting the mprotect/SIGSEGV
//! engine, moves pages over localhost UDP through `Reliable`, and the
//! launcher itself verifies every node's result against the
//! single-process simulator — these tests assert that verification
//! (and the process exit protocol) succeeds.

use std::process::Command;

fn launcher(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsm-cluster"))
        .args(args)
        .output()
        .expect("spawn dsm-cluster");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn two_process_cluster_matches_simulator() {
    let (ok, text) = launcher(&["--nodes", "2", "--timeout", "120"]);
    assert!(ok, "launcher failed:\n{text}");
    assert!(
        text.contains("cluster verification: OK"),
        "no verification line:\n{text}"
    );
}

#[test]
fn four_process_cluster_matches_simulator() {
    let (ok, text) = launcher(&["--nodes", "4", "--timeout", "240"]);
    assert!(ok, "launcher failed:\n{text}");
    assert!(
        text.contains("cluster verification: OK"),
        "no verification line:\n{text}"
    );
    // All four ranks reported and matched.
    for rank in 0..4 {
        assert!(
            text.contains(&format!("rank {rank}:")),
            "missing rank {rank}:\n{text}"
        );
    }
    assert!(!text.contains("MISMATCH"), "a rank diverged:\n{text}");
}

#[test]
fn lrc_cluster_matches_simulator() {
    // Lazy release consistency exercises the revoke-on-acquire path
    // (stale-behind-grant home copies); see core/src/cluster.rs.
    let (ok, text) = launcher(&["--nodes", "2", "--proto", "lrc", "--timeout", "120"]);
    assert!(ok, "launcher failed:\n{text}");
    assert!(
        text.contains("cluster verification: OK"),
        "no verification line:\n{text}"
    );
}

#[test]
fn fault_flags_are_refused() {
    // Injected loss, seeds, crashes and partitions are the simulator's
    // (`dsmrun`); cluster mode must refuse them rather than run without
    // them and report OK.
    for args in [
        &["--drop-prob", "0.5"][..],
        &["--dup-prob", "0.1"],
        &["--fault-seed", "7"],
        &["--crash", "1@10"],
        &["--partition", "0|1@0..100000"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsm-cluster"))
            .args(["--nodes", "2"])
            .args(args)
            .output()
            .expect("spawn dsm-cluster");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(
            stderr.starts_with(&format!("dsm-cluster: unknown flag {}\n", args[0])),
            "{args:?} not named:\n{stderr}"
        );
    }
}

#[test]
fn non_page_fault_protocols_are_refused() {
    // Every protocol whose row says it is not page-fault driven — asked
    // of the row, not listed — is refused with the row's reason.
    let refused = dsm_core::ProtocolKind::EVERY
        .into_iter()
        .filter_map(|p| Some((p.name(), p.facts().page_fault_driven.err()?)));
    for (proto, why) in refused {
        let (ok, text) = launcher(&["--nodes", "2", "--proto", proto]);
        assert!(!ok, "{proto} should be rejected");
        assert!(
            text.contains("not page-fault driven") && text.contains(why),
            "wrong error for {proto}:\n{text}"
        );
    }
}
