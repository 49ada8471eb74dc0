//! `dsmrun --app kv`: the E21 board from the command line, so a
//! run-length sweep of the benchmark's `sim_kv_*` shape is a command.

use std::process::Command;

fn dsmrun(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsmrun"))
        .args(args)
        .output()
        .expect("spawn dsmrun");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn kv_is_listed_and_verifies_under_lazy_and_eager_protocols() {
    let (code, list) = dsmrun(&["--list"]);
    assert_eq!(code, Some(0));
    let apps = list.lines().next().expect("--list prints the apps first");
    assert!(apps.split_whitespace().any(|a| a == "kv"), "{apps}");

    for proto in ["lrc", "ivy-fixed"] {
        let args = [
            "--app", "kv", "--proto", proto, "--nodes", "4", "--page", "1024", "--size", "150",
        ];
        let (code, stdout) = dsmrun(&args);
        assert_eq!(code, Some(0), "{proto}: {stdout}");
        assert!(
            stdout.starts_with(&format!("app=kv proto={proto} nodes=4 page=1024B")),
            "{stdout}"
        );
        assert!(stdout.contains("verification: OK"), "{proto}: {stdout}");
    }
}
