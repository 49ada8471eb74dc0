//! `dsmrun --app kv`: the E21 board from the command line, so a
//! run-length sweep of the benchmark's `sim_kv_*` shape is a command —
//! under every protocol, or refused for the reason the protocol's row
//! gives; and the grid shapes a row refuses the same way.

use dsm_core::ProtocolKind;
use std::process::Command;

fn dsmrun(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsmrun"))
        .args(args)
        .output()
        .expect("spawn dsmrun");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn kv_is_listed_and_verifies_under_lazy_and_eager_protocols() {
    let (code, list, _) = dsmrun(&["--list"]);
    assert_eq!(code, Some(0));
    let apps = list.lines().next().expect("--list prints the apps first");
    assert!(apps.split_whitespace().any(|a| a == "kv"), "{apps}");

    for proto in ["lrc", "ivy-fixed"] {
        let args = [
            "--app", "kv", "--proto", proto, "--nodes", "4", "--page", "1024", "--size", "150",
        ];
        let (code, stdout, _) = dsmrun(&args);
        assert_eq!(code, Some(0), "{proto}: {stdout}");
        assert!(
            stdout.starts_with(&format!("app=kv proto={proto} nodes=4 page=1024B")),
            "{stdout}"
        );
        assert!(stdout.contains("verification: OK"), "{proto}: {stdout}");
    }
}

/// The board binds every key to its stripe lock and packs many keys to
/// a page: a protocol either verifies on it or says in its row why it
/// cannot. MISMATCH is never the answer.
#[test]
fn kv_verifies_or_is_refused_with_the_rows_reason_under_every_protocol() {
    for proto in ProtocolKind::EVERY {
        let args = [
            "--app",
            "kv",
            "--proto",
            proto.name(),
            "--nodes",
            "3",
            "--size",
            "60",
        ];
        let (code, stdout, stderr) = dsmrun(&args);
        match proto.facts().sub_page_writers {
            Ok(()) => {
                assert_eq!(code, Some(0), "{proto}: {stdout}{stderr}");
                assert!(stdout.contains("verification: OK"), "{proto}: {stdout}");
            }
            Err(why) => {
                assert_eq!(code, Some(2), "{proto}: {stdout}{stderr}");
                assert!(stdout.is_empty(), "{proto} ran: {stdout}");
                assert!(stderr.contains(why), "{proto}: {stderr}");
            }
        }
    }
}

/// Whether two ranks of a grid app write one page depends on the grid,
/// the node count and the page size, so the table computes it: `fft 16`
/// on 3 nodes and `jacobi 64` on 8 each share a page between ranks
/// (they printed MISMATCH under `scabd`). Refused there with the row's
/// reason, they run and verify under a row that keeps sub-page writers.
#[test]
fn grid_shapes_whose_ranks_share_a_page_are_refused_by_the_row() {
    let why = ProtocolKind::Scabd.facts().sub_page_writers.unwrap_err();
    for (app, size, nodes) in [("fft", "16", "3"), ("jacobi", "64", "8")] {
        let args = |proto| {
            [
                "--app", app, "--size", size, "--nodes", nodes, "--proto", proto,
            ]
        };
        let (code, stdout, stderr) = dsmrun(&args("scabd"));
        assert_eq!(code, Some(2), "{app}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{app} ran: {stdout}");
        assert!(stderr.contains("both write page"), "{app}: {stderr}");
        assert!(stderr.contains(why), "{app}: {stderr}");
        let (code, stdout, stderr) = dsmrun(&args("ivy-fixed"));
        assert_eq!(code, Some(0), "{app}: {stdout}{stderr}");
        assert!(stdout.contains("verification: OK"), "{app}: {stdout}");
    }
}

/// Write-update under loss: a retransmitted apply can land after the
/// lock grant it should precede unless the home acks a write only once
/// every copy holder has applied it. Seeds 1–3 each lost an update when
/// the home acked on sending its applies.
#[test]
fn update_kv_verifies_on_a_lossy_network() {
    for seed in ["1", "2", "3"] {
        let args = [
            "--app",
            "kv",
            "--proto",
            "update",
            "--drop-prob",
            "0.15",
            "--dup-prob",
            "0.05",
            "--fault-seed",
            seed,
        ];
        let (code, stdout, stderr) = dsmrun(&args);
        assert_eq!(code, Some(0), "seed {seed}: {stdout}{stderr}");
        assert!(stdout.contains("verification: OK"), "seed {seed}: {stdout}");
    }
}

/// There is no run-ahead quantum to set: a grant is bounded by the
/// lookahead window alone (docs/PERF.md), so `--quantum-us` is an
/// unknown flag — and like it, whatever else a user can type that the
/// runtime cannot run ends in a one-line reason and the usage string:
/// exit 2, nothing on stdout, no panic.
#[test]
fn quantum_flag_is_a_usage_error() {
    let cases: [(&[&str], &str); 14] = [
        (&["--quantum-us", "10000"], "unknown flag --quantum-us"),
        (&["--workers", "2"], "unknown flag --workers"),
        (&["--nodes", "0"], "--nodes must be at least 1"),
        (&["--page", "1000"], "--page 1000 must be a power of two"),
        (&["--page", "0"], "--page 0 must be a power of two"),
        (&["--page", "4"], "at least 8"),
        (
            &["--crash", "9@1"],
            "--crash names node 9 but the run has 4",
        ),
        (
            &["--partition", "0|4@1..2"],
            "--partition names node 4 but the run has 4",
        ),
        (&["--drop-prob", "1.5"], "--drop-prob 1.5 must be in [0, 1)"),
        (&["--drop-prob", "1"], "--drop-prob 1 must be in [0, 1)"),
        (&["--dup-prob", "-0.1"], "--dup-prob -0.1 must be in [0, 1)"),
        (&["--dup-prob", "nan"], "--dup-prob NaN must be in [0, 1)"),
        (&["--size", "1"], "--app sor needs --size of at least 2"),
        (
            &["--app", "fft", "--size", "3"],
            "--app fft needs a power-of-two --size",
        ),
    ];
    for (args, reason) in cases {
        let (code, stdout, stderr) = dsmrun(&[&["--app", "sor"], args].concat());
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(first.contains(reason), "{args:?}: {stderr}");
        assert!(
            lines.next().is_some_and(|l| l.starts_with("usage: dsmrun")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
