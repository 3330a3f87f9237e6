//! Shared infrastructure for the experiment binaries (one per paper
//! figure/table; see DESIGN.md's experiment index).
//!
//! Every binary follows the same protocol:
//!
//! 1. parse the common CLI flags ([`SweepOpts::from_args`]),
//! 2. compute each curve of the figure, parallelized over sweep points
//!    ([`parallel_points`]),
//! 3. print the table (aligned + CSV) exactly as the paper's figure would
//!    tabulate it,
//! 4. run *shape checks* — assertions about orderings and ratios the paper
//!    reports (who wins, by roughly what factor, where crossovers fall) —
//!    and exit non-zero if any fail. Absolute numbers are not expected to
//!    match the paper (different LP solver, unknown random seeds); shapes
//!    are.

use ft_mcf::Stop;
use ft_metrics::throughput::ThroughputResult;
use ft_metrics::Table;

/// Common sweep options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct SweepOpts {
    /// Fat-tree parameters to sweep (even, ascending).
    pub k_values: Vec<usize>,
    /// FPTAS ε for throughput experiments.
    pub epsilon: f64,
    /// RNG seed for random topologies and workloads.
    pub seed: u64,
    /// Safety cap on FPTAS routing steps per solve (None = unlimited).
    pub max_steps: Option<usize>,
    /// Write the CSV to this path as well (from `--csv PATH`).
    pub csv_path: Option<String>,
    /// Repetitions (distinct seeds) averaged per throughput point. Small
    /// fabrics host a single cluster whose random hot-spot placement adds
    /// noise; the paper's smooth curves imply averaging.
    pub reps: usize,
    /// Stream ft-obs spans to this JSONL file (from `--trace PATH`).
    pub trace_path: Option<String>,
}

/// The flags [`SweepOpts::parse`] accepts, as `--help` prints them.
const USAGE: &str =
    "flags: --full | --kmax N | --eps X | --seed S | --reps N | --csv PATH | --trace PATH";

/// Largest `--kmax` a sweep accepts (the k = 128 scale tier).
const KMAX_LIMIT: usize = 128;

impl SweepOpts {
    /// Parses the process's command-line arguments ([`SweepOpts::parse`]).
    /// `--help` prints the flag list and exits 0; a bad flag prints
    /// `error: …` and exits 2, like `ftctl`.
    ///
    /// When `--trace` is given the sink is installed and instrumentation
    /// enabled before returning; [`ShapeChecks::finish`] flushes and closes
    /// the sink before exiting (`process::exit` skips TLS destructors, so
    /// the flush cannot be left to them).
    pub fn from_args(default_kmax: usize) -> SweepOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        let fail = |msg: String| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        let opts = SweepOpts::parse(&args, default_kmax).unwrap_or_else(|e| fail(e));
        if let Some(path) = &opts.trace_path {
            if let Err(e) = ft_obs::install_file_sink(path) {
                fail(format!("cannot open trace file {path}: {e}"));
            }
            ft_obs::set_enabled(true);
        }
        opts
    }

    /// Parses sweep flags (without the program name) and range-checks
    /// their values; the error names the offending flag.
    ///
    /// * `--full` — sweep to the paper's k = 32 (default caps at
    ///   `default_kmax` so the harness finishes in minutes),
    /// * `--kmax N` — explicit sweep cap, 4 ≤ N ≤ 128,
    /// * `--eps X` — FPTAS ε ∈ (0, 0.5) (default 0.15; the certified λ is
    ///   ≥ (1 − 3ε)·OPT),
    /// * `--seed S` — RNG seed (default 1),
    /// * `--reps N` — seeds averaged per throughput point, ≥ 1 (default 3),
    /// * `--csv PATH` — also write the CSV there,
    /// * `--trace PATH` — enable ft-obs instrumentation and stream spans
    ///   (one JSON object per line) to PATH. Without it, instrumentation
    ///   stays off at one relaxed atomic load per site.
    ///
    /// # Errors
    /// An unknown flag, a flag without its value, a value that does not
    /// parse, or one outside its range.
    pub fn parse(args: &[String], default_kmax: usize) -> Result<SweepOpts, String> {
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag} needs a number, got {v:?}"))
        }
        let mut kmax = default_kmax;
        let mut epsilon = 0.15;
        let mut seed = 1u64;
        let mut csv_path = None;
        let mut reps = 3usize;
        let mut trace_path = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--full" {
                kmax = 32;
                continue;
            }
            let value = match flag.as_str() {
                "--kmax" | "--eps" | "--seed" | "--reps" | "--csv" | "--trace" => {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))?
                }
                other => return Err(format!("unknown flag {other:?}; try --help")),
            };
            match flag.as_str() {
                "--kmax" => kmax = number(flag, value)?,
                "--eps" => epsilon = number(flag, value)?,
                "--seed" => seed = number(flag, value)?,
                "--reps" => reps = number(flag, value)?,
                "--csv" => csv_path = Some(value.clone()),
                _ => trace_path = Some(value.clone()),
            }
        }
        if !(4..=KMAX_LIMIT).contains(&kmax) {
            return Err(format!("--kmax {kmax} outside [4, {KMAX_LIMIT}]"));
        }
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return Err(format!("--eps {epsilon} outside (0, 0.5)"));
        }
        if reps == 0 {
            return Err("--reps must be at least 1".into());
        }
        Ok(SweepOpts {
            k_values: (4..=kmax).step_by(2).collect(),
            epsilon,
            seed,
            max_steps: Some(2_000_000),
            csv_path,
            reps,
            trace_path,
        })
    }
}

/// Computes `f` over `points` in parallel and returns results in input
/// order. Panics in workers propagate.
///
/// Delegates to [`ft_graph::par::map`], so worker count honours the
/// `FT_THREADS` override and the deterministic-output contract of
/// DESIGN.md §10 (results depend only on input order, never scheduling).
pub fn parallel_points<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    ft_graph::par::map(&points, f)
}

/// Collected shape-check results; the binary exits non-zero if any failed.
#[derive(Default)]
pub struct ShapeChecks {
    failures: usize,
    total: usize,
}

impl ShapeChecks {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check and prints its verdict.
    pub fn check(&mut self, label: &str, ok: bool, detail: String) {
        self.total += 1;
        if ok {
            println!("  [shape PASS] {label}: {detail}");
        } else {
            self.failures += 1;
            println!("  [shape FAIL] {label}: {detail}");
        }
    }

    /// Prints the summary and terminates with the appropriate exit code.
    ///
    /// Flushes and closes any ft-obs trace sink first: `process::exit`
    /// skips TLS destructors, so buffered spans would otherwise be lost.
    pub fn finish(self) -> ! {
        println!(
            "\nshape checks: {}/{} passed",
            self.total - self.failures,
            self.total
        );
        ft_obs::set_enabled(false);
        ft_obs::take_sink();
        std::process::exit(if self.failures == 0 { 0 } else { 1 });
    }
}

/// Prints a figure header, the aligned table, and its CSV form (also
/// writing the CSV to `csv_path` when given). An unwritable `--csv` path
/// prints `error: …` and exits 2, like any other bad flag.
pub fn print_figure(title: &str, paper_note: &str, table: &Table, csv_path: Option<&str>) {
    println!("=== {title} ===");
    println!("{paper_note}\n");
    print!("{}", table.to_aligned_string());
    println!("\nCSV:\n{}", table.to_csv());
    if let Some(path) = csv_path {
        if let Err(e) = std::fs::write(path, table.to_csv()) {
            eprintln!("error: cannot write --csv {path}: {e}");
            std::process::exit(2);
        }
        println!("(csv written to {path})");
    }
}

/// The certified gaps of a figure's throughput solves: the worst
/// `(UB − λ)/UB` — how far below its proven upper bound a reported λ may
/// lie — and how many solves stopped on each rule.
#[derive(Clone, Debug, Default)]
pub struct GapReport {
    worst: f64,
    solves: usize,
    gap_stops: usize,
}

impl GapReport {
    /// Records one solve.
    pub fn add(&mut self, r: &ThroughputResult) {
        let gap = if r.upper_bound.is_finite() && r.upper_bound > 0.0 {
            (r.upper_bound - r.lambda) / r.upper_bound
        } else {
            0.0 // unconstrained: λ = UB = ∞
        };
        self.worst = self.worst.max(gap);
        self.solves += 1;
        self.gap_stops += usize::from(r.stop == Stop::Gap);
    }

    /// Folds in another report.
    pub fn merge(&mut self, other: &GapReport) {
        self.worst = self.worst.max(other.worst);
        self.solves += other.solves;
        self.gap_stops += other.gap_stops;
    }

    /// Prints the one-line summary the figure binaries end their table
    /// with.
    pub fn print(&self) {
        println!(
            "certified gap (UB − λ)/UB: worst {:.2} % over {} solves \
             ({} stopped on the 1 % gap, {} on D(l) ≥ 1 or the budget)\n",
            100.0 * self.worst,
            self.solves,
            self.gap_stops,
            self.solves - self.gap_stops
        );
    }
}

/// Relative difference `|a − b| / max(|b|, tiny)`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_points_order_preserved() {
        let r = parallel_points((0..100).collect(), |&x: &i32| x * x);
        assert_eq!(r.len(), 100);
        for (i, v) in r.iter().enumerate() {
            assert_eq!(*v, (i * i) as i32);
        }
    }

    #[test]
    fn parallel_points_empty() {
        let r: Vec<i32> = parallel_points(Vec::<i32>::new(), |&x| x);
        assert!(r.is_empty());
    }

    fn parse(args: &[&str]) -> Result<SweepOpts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        SweepOpts::parse(&args, 12)
    }

    #[test]
    fn parse_defaults_and_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.k_values, vec![4, 6, 8, 10, 12]);
        assert_eq!((o.epsilon, o.seed, o.reps), (0.15, 1, 3));
        let o = parse(&[
            "--full", "--eps", "0.1", "--seed", "7", "--reps", "2", "--csv", "x.csv",
        ])
        .unwrap();
        assert_eq!(o.k_values.last(), Some(&32));
        assert_eq!((o.epsilon, o.seed, o.reps), (0.1, 7, 2));
        assert_eq!(o.csv_path.as_deref(), Some("x.csv"));
        assert_eq!(parse(&["--kmax", "8"]).unwrap().k_values, vec![4, 6, 8]);
    }

    #[test]
    fn parse_rejects_bad_flags() {
        let rejected = [
            (&["--bogus"][..], "unknown flag"),
            (&["--kmax"][..], "--kmax needs a value"),
            (&["--eps"][..], "--eps needs a value"),
            (&["--seed", "1", "--csv"][..], "--csv needs a value"),
            (&["--trace"][..], "--trace needs a value"),
            (&["--kmax", "big"][..], "--kmax needs a number"),
            (&["--kmax", "-4"][..], "--kmax needs a number"),
            (&["--eps", "x"][..], "--eps needs a number"),
            (&["--seed", "1.5"][..], "--seed needs a number"),
            (&["--reps", "two"][..], "--reps needs a number"),
            (&["--kmax", "2"][..], "outside [4, 128]"),
            (&["--kmax", "1000"][..], "outside [4, 128]"),
            (&["--eps", "0.7"][..], "outside (0, 0.5)"),
            (&["--eps", "0.5"][..], "outside (0, 0.5)"),
            (&["--eps", "0"][..], "outside (0, 0.5)"),
            (&["--eps", "NaN"][..], "outside (0, 0.5)"),
            (&["--reps", "0"][..], "at least 1"),
        ];
        for (args, want) in rejected {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(want), "{args:?}: {err}");
        }
    }

    #[test]
    fn rel_diff_basics() {
        assert!((rel_diff(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(5.0, 5.0), 0.0);
    }
}
