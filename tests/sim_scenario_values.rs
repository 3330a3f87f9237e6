//! `ftctl sim` on scenario values that used to crash or slip through:
//! a zero or infinite link capacity, a negative converter latency, a
//! `rounds` whose flow count overflows or cannot be allocated and a
//! `ksp:<n>` path count above 64 must each end in an `error:` line and
//! exit code 2, never a panic (exit 101), an abort or a run.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

/// Runs `ftctl sim` on a one-off scenario file with `extra` appended to a
/// small conversion scenario; returns (exit code, stderr).
fn sim_with(name: &str, extra: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("ftctl_sim_values_{name}.scn"));
    let text = format!("k = 4\nto = global-rg\nrounds = 1\n{extra}\n");
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ftctl"))
        .args(["sim", "--scenario", path.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(name: &str, extra: &str, key: &str) {
    let (code, stderr) = sim_with(name, extra);
    assert_eq!(code, Some(2), "{extra:?}: exit {code:?}, stderr {stderr}");
    assert!(
        stderr.starts_with(&format!("error: scenario key {key}")),
        "{extra:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
}

#[test]
fn zero_capacity_is_an_error() {
    assert_rejected("cap0", "capacity = 0", "capacity");
}

#[test]
fn infinite_capacity_is_an_error() {
    assert_rejected("capinf", "capacity = inf", "capacity");
}

#[test]
fn negative_latency_is_an_error() {
    assert_rejected("latneg", "latency = -1", "latency");
}

/// demands × rounds wraps `usize` for the first value (a `capacity
/// overflow` panic before the check) and asks for ~10¹² flows for the
/// second (an allocation abort).
#[test]
fn overflowing_rounds_is_an_error() {
    assert_rejected("rounds_wrap", "rounds = 18446744073709551615", "rounds");
    assert_rejected("rounds_huge", "rounds = 1000000000000", "rounds");
}

#[test]
fn valid_values_still_run() {
    let (code, stderr) = sim_with("valid", "capacity = 2\nlatency = 0");
    assert_eq!(code, Some(0), "{stderr}");
}

/// `ksp:<n>` keeps at most 64 paths per switch pair; `ksp:1000000000`
/// used to be accepted and would ask Yen for 10⁹ paths per pair.
#[test]
fn ksp_path_count_above_64_is_an_error() {
    assert_rejected("ksp65", "policy = ksp:65", "policy");
    assert_rejected("ksp_huge", "new-policy = ksp:1000000000", "new-policy");
    assert_rejected("ksp0", "new-policy = ksp:0", "new-policy");
    let (code, stderr) = sim_with("ksp64", "new-policy = ksp:64");
    assert_eq!(code, Some(0), "{stderr}");
}
