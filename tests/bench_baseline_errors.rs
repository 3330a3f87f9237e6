//! `ftctl bench --check` on a baseline it cannot use, a missing file or a
//! corrupt one, must end in an `error:` line naming the file and exit
//! code 2, never a panic (exit 101). The baseline is read before any kernel
//! runs: the traced run records no span.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;
use std::process::Command;

fn assert_rejected(path: &Path, why: &str) {
    let path = path.to_str().unwrap();
    let trace = std::env::temp_dir().join(format!("ftctl_bench_baseline_{why}.jsonl"));
    let _ = std::fs::remove_file(&trace);
    let out = Command::new(env!("CARGO_BIN_EXE_ftctl"))
        .args(["bench", "--quick", "--check", path, "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{why}: stderr {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(path),
        "{why}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{why}: {stderr}");
    let spans = std::fs::read_to_string(&trace).unwrap_or_default();
    assert!(spans.is_empty(), "{why}: a kernel ran:\n{spans}");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn missing_baseline_is_an_error() {
    let path = std::env::temp_dir().join("ftctl_bench_missing_baseline.json");
    let _ = std::fs::remove_file(&path);
    assert_rejected(&path, "missing");
}

#[test]
fn corrupt_baseline_is_an_error() {
    let good = include_str!("../BENCH_hotpaths.json");
    let cut = good.len() / 2;
    for (name, body) in [
        (
            "nan",
            good.replacen("\"ms\": ", "\"ms\": NaN, \"was\": ", 1),
        ),
        ("truncated", good[..cut].to_string()),
        ("not_json", "\u{0}\u{ff}garbage\n".to_string()),
    ] {
        let path = std::env::temp_dir().join(format!("ftctl_bench_corrupt_{name}.json"));
        std::fs::write(&path, body).unwrap();
        assert_rejected(&path, name);
        let _ = std::fs::remove_file(&path);
    }
}
