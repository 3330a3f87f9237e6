//! The benchmark's command line.
//!
//! ```text
//! ftbench --workload NAME --seed N --seconds S --trace 0|1 [--json OUT]
//! ftbench compare A.jsonl B.jsonl
//! ```
//!
//! A run prints its metrics as a table, appends its record to `OUT` when
//! given (a traced run also writes its spans beside it), and ends with one
//! JSON result line. It exits 0 when every gate passed, 2 when one failed
//! or the arguments are wrong. `compare` exits 1 when any pair is worse.

use ftbench::{compare, run, Catalog, Reference, Workload};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: ftbench --workload NAME --seed N --seconds S --trace 0|1 [--json OUT]\n       ftbench compare A.jsonl B.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ftbench: {e}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        flags.push((flag.as_str(), value.as_str()));
    }
    let get = |name: &str| flags.iter().find(|(f, _)| *f == name).map(|&(_, v)| v);
    if let Some((f, _)) = flags
        .iter()
        .find(|(f, _)| !["--workload", "--seed", "--seconds", "--trace", "--json"].contains(f))
    {
        return Err(format!("unknown argument {f}\n{USAGE}"));
    }
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}\n{USAGE}"));
    let name = need("--workload")?;
    let workload = Workload::named(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be a number in (0, 600]")?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        json: get("--json").map(str::to_string),
    })
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let catalog = Catalog::builtin()?;
    let reference = Reference::builtin(a.seed)?;
    let result = run(&a.workload, a.seed, a.seconds, a.trace, reference.as_ref())?;
    let specs = if a.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
    let declared: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
    if emitted != declared {
        return Err(format!(
            "metrics {emitted:?} do not match BENCHMARK.json {declared:?}"
        ));
    }
    print!("{}", result.table(&catalog));
    if let Some(out) = &a.json {
        append(out, &result.record())?;
        if a.trace {
            let path = spans_path(out, result.workload, a.seed);
            let mut text = result.spans.join("\n");
            text.push('\n');
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("spans written to {path} (ftctl trace {path})");
        }
    }
    println!("{}", result.result_line(&catalog));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn append(path: &str, line: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
}

/// `runs/a.jsonl` → `runs/a.<workload>.seed<N>.spans.jsonl`.
fn spans_path(out: &str, workload: &str, seed: u64) -> String {
    let p = Path::new(out);
    let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("ftbench");
    p.with_file_name(format!("{stem}.{workload}.seed{seed}.spans.jsonl"))
        .to_string_lossy()
        .into_owned()
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let rows = compare::compare(&Catalog::builtin()?, &read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
