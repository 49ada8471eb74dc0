//! The `exp` binary's command line: names come from the registry, and
//! a name it does not know is a usage error, not a silent no-op.

use dsm_bench::experiments::{REGISTRY, STANDALONE};
use std::process::Command;

fn exp(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("spawn exp");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn list_prints_the_registry() {
    let (code, stdout, _) = exp(&["--list"]);
    assert_eq!(code, Some(0));
    let want: Vec<&str> = REGISTRY.iter().chain(STANDALONE).map(|(n, _)| *n).collect();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), want);
    assert_eq!(want.len(), 23);
}

#[test]
fn unknown_or_missing_name_is_a_usage_error() {
    for args in [
        &["e99_nope"][..],
        &["--quick"],
        &["e09_diffs", "--frobnicate"],
        // Tables on stdout are all an experiment produces.
        &["e09_diffs", "--json"],
        &["all", "--quick", "--json"],
    ] {
        let (code, stdout, stderr) = exp(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed a table");
        assert!(stderr.starts_with("usage: exp <name>"), "{stderr}");
    }
}

#[test]
fn a_name_runs_that_experiment() {
    let (code, stdout, _) = exp(&["e09_diffs", "--quick"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("== E9:"), "{stdout}");
}

#[test]
fn all_runs_the_registry_in_order() {
    let (code, stdout, _) = exp(&["all", "--quick"]);
    assert_eq!(code, Some(0));
    let titles: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    let (first, last) = (titles[0], titles[titles.len() - 1]);
    assert!(first.starts_with("== E1:"), "{first}");
    assert!(last.starts_with("== E22b:"), "{last}");
}

/// EXPERIMENTS.md's name index is the registry, in order.
#[test]
fn experiments_md_indexes_the_registry() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let indexed: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    let want: Vec<&str> = REGISTRY.iter().chain(STANDALONE).map(|(n, _)| *n).collect();
    assert_eq!(indexed, want);
}
