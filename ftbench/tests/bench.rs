//! Every workload at a tiny size through the library, the gates against a
//! perturbed reference, `compare` verdicts, and the command line's refusals.

use ftbench::compare::{compare, Verdict};
use ftbench::{reference_outputs, run, Catalog, Kind, Reference, RunResult, Summary, WORKLOADS};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Runs share ft-obs's process-wide span sink and counters: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Time budget of a tiny run: it still does all its set-ups and the
/// minimum number of timed operations.
const SECONDS: f64 = 0.01;

/// The per-layer metric each workload must exercise, and one it bypasses.
fn exercised(kind: Kind) -> (&'static str, &'static str) {
    match kind {
        Kind::SolveFig7 => ("ft-mcf.fptas_pct", "ft-des.events"),
        Kind::SolveA2a => ("ft-mcf.orbits", "ft-des.events"),
        Kind::SimStorm => ("ft-sim.router_setup_pct", "ft-mcf.fptas_pct"),
        Kind::SimConvert => ("ft-sim.conversion_reroutes", "ft-mcf.fptas_pct"),
        Kind::ServeMix => ("ft-serve.materializations", "ft-des.events"),
    }
}

#[test]
fn every_workload_runs_and_emits_the_declared_metrics() {
    let _g = serial();
    let catalog = Catalog::builtin().unwrap();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(catalog.workloads, names);
    for w in WORKLOADS {
        let tiny = w.tiny();
        for (trace, specs) in [(false, &catalog.end_to_end), (true, &catalog.per_layer)] {
            let r = run(&tiny, 1, SECONDS, trace, None).unwrap();
            assert!(r.correct(), "{} trace={trace}: {:?}", w.name, r.failures);
            assert!(r.attempted > 0, "{}", w.name);
            let emitted: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
            let declared: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, declared, "{} trace={trace}", w.name);
            let value = |name: &str| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| s.median)
                    .unwrap()
            };
            if trace {
                let (used, bypassed) = exercised(w.kind);
                assert!(value(used) > 0.0, "{}: {used} is 0", w.name);
                assert_eq!(value(bypassed), 0.0, "{}: {bypassed}", w.name);
                assert_eq!(value("ft-obs.dropped_lines"), 0.0);
                assert!(!r.spans.is_empty());
            } else {
                for (name, s) in &r.metrics {
                    assert!(s.median > 0.0, "{}: {name} is {}", w.name, s.median);
                }
                let line = r.result_line(&catalog);
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
            }
        }
    }
}

#[test]
fn a_perturbed_reference_trips_the_gate() {
    let _g = serial();
    for w in WORKLOADS {
        let tiny = w.tiny();
        let honest = reference_outputs(&tiny, 2).unwrap();
        assert!(!(honest.lambda.is_empty() && honest.checksum.is_empty()));
        let r = run(&tiny, 2, SECONDS, false, Some(&honest)).unwrap();
        assert!(r.correct(), "{}: {:?}", w.name, r.failures);
        let mut bad = honest.clone();
        // twice λ_ref is outside [1 − 3ε, 1/(1 − 3ε)] for ε = 0.15
        bad.lambda.values_mut().for_each(|l| *l *= 2.0);
        bad.checksum.values_mut().for_each(|c| *c ^= 1);
        let r = run(&tiny, 2, SECONDS, false, Some(&bad)).unwrap();
        assert!(r.failed > 0, "{}: perturbed reference passed", w.name);
        assert!(!r.correct());
    }
}

/// Untraced records of `solve_a2a_k32` with the given `op_ms` medians.
fn records(op_ms: &[f64], failed: u64) -> String {
    op_ms
        .iter()
        .enumerate()
        .map(|(i, &ms)| {
            let around = |v: f64| Summary {
                median: v,
                p25: v * 0.99,
                p75: v * 1.01,
                n: 10,
            };
            RunResult {
                workload: "solve_a2a_k32",
                seed: i as u64,
                traced: false,
                metrics: vec![
                    ("op_ms", around(ms)),
                    ("ops_per_s", Summary::single(1e3 / ms)),
                    ("peak_rss_mb", Summary::single(100.0)),
                    ("setup_s", around(1.0)),
                ],
                details: Vec::new(),
                attempted: 10,
                failed,
                failures: Vec::new(),
                spans: Vec::new(),
            }
            .record()
                + "\n"
        })
        .collect()
}

#[test]
fn compare_passes_identical_runs_and_flags_a_regression() {
    let catalog = Catalog::builtin().unwrap();
    let verdict = |a: &str, b: &str, metric: &str| {
        compare(&catalog, a, b)
            .unwrap()
            .into_iter()
            .find(|r| r.metric == metric)
            .map(|r| r.verdict)
            .unwrap()
    };
    let base = [100.0, 101.0, 99.0, 100.5, 100.2];
    let a = records(&base, 0);
    let same = compare(&catalog, &a, &a).unwrap();
    assert_eq!(same.len(), catalog.end_to_end.len() + 1);
    assert!(same.iter().all(|r| r.verdict == Verdict::Ok), "{same:?}");

    // 40 % longer operations, 29 % fewer per second: both beyond the
    // 25 % bounds of op_ms and ops_per_s
    let slower = records(&base.map(|v| v * 1.4), 0);
    assert_eq!(verdict(&a, &slower, "op_ms"), Verdict::Worse);
    assert_eq!(verdict(&a, &slower, "ops_per_s"), Verdict::Worse);
    assert_eq!(verdict(&a, &slower, "setup_s"), Verdict::Ok);
    assert_eq!(
        verdict(&slower, &a, "op_ms"),
        Verdict::Ok,
        "faster is never worse"
    );

    let noisy = records(&[60.0, 100.0, 140.0, 80.0, 120.0], 0);
    assert_eq!(verdict(&a, &noisy, "op_ms"), Verdict::Unresolved);

    let failing = records(&base, 1);
    assert_eq!(verdict(&a, &failing, "error_share"), Verdict::Worse);
    assert_eq!(verdict(&a, &failing, "op_ms"), Verdict::Ok);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let valid = [
        "--workload",
        "serve_mix_k8",
        "--seed",
        "1",
        "--seconds",
        "1",
    ];
    let cases: [&[&str]; 5] = [
        &[],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[&valid[..], &["--trace", "2"]].concat(),
        &[&valid[..], &["--trace", "0", "--bogus", "x"]].concat(),
        &["compare", "only-one.jsonl"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ftbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
#[ignore = "full-size solves and simulations; run with `cargo test --release -- --ignored`"]
fn regenerate_reference_files() {
    for seed in [1, 2] {
        let mut r = Reference::default();
        for w in WORKLOADS {
            r.merge(reference_outputs(&w, seed).unwrap());
        }
        let path = format!("{}/reference/seed{seed}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, r.to_json()).unwrap();
    }
}
