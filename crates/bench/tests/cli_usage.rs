//! The `repro` binary's argument errors: an option it does not know and a
//! second artifact name are both usage errors (exit status 2) whose
//! message names the offending argument, instead of being taken as the
//! artifact to run.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn an_unknown_option_is_a_usage_error_naming_it() {
    let (code, stderr) = repro(&["sanitize", "--bogus", "8"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--bogus"), "{stderr}");
}

#[test]
fn a_second_artifact_is_a_usage_error_naming_it() {
    let (code, stderr) = repro(&["fig1", "table1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("table1"), "{stderr}");
}
