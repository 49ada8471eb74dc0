//! `dsmrun --app kv`: the E21 board from the command line, so a
//! run-length sweep of the benchmark's `sim_kv_*` shape is a command —
//! under every protocol, or refused for the reason the protocol's row
//! gives.

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

/// The run-ahead quantum is a constant (docs/PERF.md), not a flag.
#[test]
fn quantum_flag_is_a_usage_error() {
    let (code, stdout, stderr) = dsmrun(&["--app", "sor", "--quantum-us", "10000"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown flag --quantum-us"), "{stderr}");
}
