//! End-to-end tests of the lint gate over the on-disk fixture trees.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn violating_tree_reports_every_rule() {
    let report = ft_lint::run(&fixture("violating")).unwrap();
    let rules: std::collections::BTreeSet<&str> =
        report.violations.iter().map(|v| v.rule).collect();
    for info in ft_lint::rules::RULES {
        assert!(rules.contains(info.id), "missing {}: {rules:?}", info.id);
    }
    assert!(!report.violations.is_empty());
}

#[test]
fn clean_tree_is_clean() {
    let report = ft_lint::run(&fixture("clean")).unwrap();
    assert!(report.is_clean(), "unexpected: {:?}", report.violations);
    assert!(report.files_scanned >= 1);
}

#[test]
fn allowlist_without_reason_is_config_error() {
    let err = ft_lint::run(&fixture("bad-allow")).unwrap_err();
    assert!(err.contains("reason"), "{err}");
}

#[test]
fn violations_carry_location_and_excerpt() {
    let report = ft_lint::run(&fixture("violating")).unwrap();
    let cast = report
        .violations
        .iter()
        .find(|v| v.rule == "truncating-cast")
        .unwrap();
    assert!(cast.path.ends_with("crates/ft-graph/src/lib.rs"));
    assert!(cast.line > 0);
    assert!(cast.excerpt.contains("as u32"));
}

#[test]
fn repo_gate_is_green() {
    // the workspace itself must pass its own gate (same invariant CI
    // enforces via `ftctl lint`)
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    let report = ft_lint::run(&root).unwrap();
    assert!(
        report.violations.is_empty(),
        "workspace lint violations: {:#?}",
        report.violations
    );
    assert!(
        report.unused_allow.is_empty(),
        "stale lint-allow.toml entries: {:#?}",
        report.unused_allow
    );
    // every suppression carries provenance back to a concrete entry
    for s in &report.suppressed {
        assert!(!s.reason.is_empty(), "suppression without reason: {s:?}");
    }
}
