//! `ftctl bench`: fixed-seed timings of the hot-path kernels, and the one
//! reader and writer of their `ft-hotpaths-bench/1` report, whose
//! `--check` gate compares a run against a checked-in baseline.

use super::{materialize, CliError, Invocation, TraceGuard};
use crate::control::{EcmpRoutes, KspRoutes};
use crate::core::Mode;
use crate::graph::{par, Csr, DistMatrix, EdgeId, NodeId};
use crate::mcf::{
    aggregate_commodities, max_concurrent_flow, CapGraph, DijkstraScratch, FptasOptions,
};
use crate::metrics::throughput::{throughput_all_to_all, SolverKind, ThroughputOptions};
use crate::sim::{flows_with_arrivals, DesSimulator, RouterPolicy};
use crate::topo::{fat_tree, DedupedApsp};
use crate::workload::{generate, generate_on, Locality, TrafficPattern, WorkloadSpec};
use std::fmt::Write as _;

/// Schema tag of the report that [`bench_json`] writes and
/// [`parse_baseline`] reads.
const SCHEMA: &str = "ft-hotpaths-bench/1";

/// Fixed RNG seed for every bench topology and workload: the report must be
/// reproducible run to run (timings vary, checksums and λ must not).
const BENCH_SEED: u64 = 1;

/// Timed repetitions per bench kernel. Entries report the median, so one
/// scheduler hiccup in either run cannot fail a `--check`.
const BENCH_REPS: usize = 3;

/// Runs `f` [`BENCH_REPS`] times and returns its last result plus the
/// median wall-clock milliseconds. Every kernel is deterministic, so the
/// repetitions return equal results.
fn time_ms<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut once = || {
        let t0 = std::time::Instant::now();
        let r = f();
        (r, t0.elapsed().as_secs_f64() * 1e3)
    };
    let mut ms = [0.0f64; BENCH_REPS];
    let (mut r, first) = once();
    ms[0] = first;
    for slot in &mut ms[1..] {
        let (next, t) = once();
        r = next;
        *slot = t;
    }
    ms.sort_by(f64::total_cmp);
    (r, ms[BENCH_REPS / 2])
}

/// One timed kernel measurement: a row of the JSON report, written by
/// this run or read from a baseline. `extras` holds additional fields as
/// already-rendered JSON values (numbers).
struct BenchEntry<'a> {
    k: usize,
    kernel: &'a str,
    variant: &'a str,
    ms: f64,
    extras: Vec<(&'a str, String)>,
}

impl BenchEntry<'_> {
    fn extra(&self, key: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Renders the full bench report as pretty-printed JSON (hand-rolled: the
/// workspace dependency policy has no serializer for this shape).
fn bench_json(threads: usize, quick: bool, entries: &[BenchEntry]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"seed\": {BENCH_SEED},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"k\": {}, \"kernel\": \"{}\", \"variant\": \"{}\", \"ms\": {:.3}",
            e.k, e.kernel, e.variant, e.ms
        );
        for (key, value) in &e.extras {
            let _ = write!(s, ", \"{key}\": {value}");
        }
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(s, "}}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Full BFS-APSP over the fat-tree(k) switch fabric into the compact `u16`
/// [`DistMatrix`]: the scalar one-queue-per-source reference (`seq`) vs the
/// multi-source bitset kernel advancing 64 sources per word (`par`, batches
/// distributed over the run's worker count). The tables must agree row
/// for row, and the checksum — the plain sum of the hop counts on these
/// connected fabrics — lands in both JSON entries so regressions show up
/// in diffs.
fn bench_apsp(k: usize, threads: usize, entries: &mut Vec<BenchEntry>) -> Result<(), CliError> {
    let net = fat_tree(k).map_err(|e| CliError(e.to_string()))?;
    let sg = net.switch_graph();
    let csr = Csr::from_graph(&sg);
    let (seq, seq_ms) = time_ms(|| DistMatrix::compute_scalar_csr(&csr));
    let seq = seq.map_err(|e| CliError(format!("bench apsp k={k}: {e}")))?;
    let (par_dm, par_ms) = time_ms(|| DistMatrix::compute_csr_with_threads(&csr, threads));
    let par_dm = par_dm.map_err(|e| CliError(format!("bench apsp k={k}: {e}")))?;
    let n = csr.node_count();
    for i in 0..n {
        if seq.row(i) != par_dm.row(i) {
            return Err(CliError(format!(
                "bench: bitset APSP diverged from the scalar reference at k = {k}, row {i}"
            )));
        }
    }
    let extras = vec![
        ("nodes", n.to_string()),
        ("checksum", seq.checksum().to_string()),
    ];
    for (variant, ms) in [("seq", seq_ms), ("par", par_ms)] {
        let extras = extras.clone();
        entries.push(BenchEntry {
            k,
            kernel: "apsp",
            variant,
            ms,
            extras,
        });
    }
    Ok(())
}

/// Symmetry-deduplicated APSP at scales where the full table is infeasible
/// (k = 128 → 20,480 switches; a full `u16` table is 0.8 GB). Times class
/// computation + one representative BFS row per class, then spot-checks a
/// few expanded rows against fresh scalar BFS runs and records the
/// expanded-table checksum (exactly what a full table would sum to) for
/// the `--check` gate. The full-vs-deduped equality gate on small k lives
/// in `tests/apsp_scale.rs`.
fn bench_apsp_dedup(
    k: usize,
    threads: usize,
    entries: &mut Vec<BenchEntry>,
) -> Result<(), CliError> {
    let net = fat_tree(k).map_err(|e| CliError(e.to_string()))?;
    let (dd, ms) = time_ms(|| DedupedApsp::compute_with_threads(&net, threads));
    let dd = dd.map_err(|e| CliError(format!("bench apsp-dedup k={k}: {e}")))?;
    let n = net.num_switches();
    // Correctness spot-check: a handful of expanded rows against direct
    // scalar BFS (cores, aggregation, and edge switches all covered by the
    // stride).
    let csr = Csr::from_graph(&net.switch_graph());
    let mut row = vec![0u16; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    for v in (0..n).step_by((n / 7).max(1)) {
        csr.bfs_into_u16(NodeId(ft_graph::id32(v)), &mut row, &mut queue);
        for (w, &expect) in row.iter().enumerate() {
            if dd.get(v, w) != expect {
                return Err(CliError(format!(
                    "bench: deduped APSP diverged from scalar BFS at k = {k}, \
                     pair ({v}, {w})"
                )));
            }
        }
    }
    entries.push(BenchEntry {
        k,
        kernel: "apsp",
        variant: "dedup",
        ms,
        extras: vec![
            ("nodes", n.to_string()),
            ("classes", dd.classes().class_count().to_string()),
            ("checksum", dd.expanded_checksum().to_string()),
        ],
    });
    Ok(())
}

/// Dijkstra calls per `dijkstra` bench row.
const DIJKSTRA_CALLS: usize = 64;

/// Sums the distances `dist` finds between [`DIJKSTRA_CALLS`] source and
/// destination nodes on a deterministic schedule spread across an
/// `n`-node fabric, skipping a pair whose ends coincide; an unreachable
/// pair adds nothing.
fn dist_sum(n: usize, mut dist: impl FnMut(usize, usize) -> Option<f64>) -> f64 {
    let mut sum = 0.0f64;
    for i in 0..DIJKSTRA_CALLS {
        let (s, d) = ((i * 37) % n, (i * 97 + n / 2) % n);
        if s != d {
            sum += dist(s, d).unwrap_or(0.0);
        }
    }
    sum
}

/// Unit-length Dijkstra over the fat-tree(k) switch fabric as a capacitated
/// digraph: the allocating `shortest_path` vs `shortest_path_with` reusing
/// one [`DijkstraScratch`] across all calls. Distance sums must be
/// bit-identical (same algorithm, same relaxation order).
fn bench_dijkstra(k: usize, entries: &mut Vec<BenchEntry>) -> Result<(), CliError> {
    let net = fat_tree(k).map_err(|e| CliError(e.to_string()))?;
    let sg = net.switch_graph();
    let g = CapGraph::from_graph(&sg, 1.0);
    let n = g.node_count();
    let ones = vec![1.0f64; g.arc_count()];
    let (alloc_sum, alloc_ms) =
        time_ms(|| dist_sum(n, |s, d| g.shortest_path(s, d, &ones).map(|(_, dist)| dist)));
    let (scratch_sum, scratch_ms) = time_ms(|| {
        let mut scratch = DijkstraScratch::new();
        dist_sum(n, |s, d| g.shortest_path_with(s, d, &ones, &mut scratch))
    });
    if alloc_sum.to_bits() != scratch_sum.to_bits() {
        return Err(CliError(format!(
            "bench: scratch Dijkstra diverged from allocating variant at k = {k} \
             ({alloc_sum} vs {scratch_sum})"
        )));
    }
    let extras = vec![
        ("calls", DIJKSTRA_CALLS.to_string()),
        ("dist_sum", format!("{alloc_sum:.1}")),
    ];
    for (variant, ms) in [("alloc", alloc_ms), ("scratch", scratch_ms)] {
        let extras = extras.clone();
        entries.push(BenchEntry {
            k,
            kernel: "dijkstra",
            variant,
            ms,
            extras,
        });
    }
    Ok(())
}

/// End-to-end source-batched FPTAS throughput solve on the k flat-tree in
/// global random-graph mode under the paper's hot-spot workload, with a
/// step cap so the bench stays bounded even if convergence regresses. λ,
/// steps, and phases are recorded alongside the timing: they are
/// deterministic for the fixed seed. A tripped budget is recorded in the
/// entry and surfaced as a warning line — never a silent λ = 0.
fn bench_fptas(
    k: usize,
    quick: bool,
    entries: &mut Vec<BenchEntry>,
    warnings: &mut Vec<String>,
) -> Result<(), CliError> {
    let net = materialize(k, &Mode::GlobalRandom)?;
    let tm = generate(&net, &WorkloadSpec::hotspot(Locality::None), BENCH_SEED);
    let commodities = aggregate_commodities(tm.switch_triples(&net));
    let sg = net.switch_graph();
    let g = CapGraph::from_graph(&sg, 1.0);
    let max_steps = if quick { 500 } else { 3_000 };
    let opts = FptasOptions {
        epsilon: 0.15,
        max_steps: Some(max_steps),
    };
    let (sol, ms) = time_ms(|| max_concurrent_flow(&g, &commodities, opts));
    let sol = sol.map_err(|e| CliError(e.to_string()))?;
    if sol.budget_exhausted {
        warnings.push(crate::metrics::budget_warning(
            &format!("bench fptas k={k}"),
            sol.lambda,
            max_steps,
        ));
    }
    entries.push(BenchEntry {
        k,
        kernel: "fptas",
        variant: "batched",
        ms,
        extras: vec![
            ("lambda", format!("{:.6}", sol.lambda)),
            ("steps", sol.steps.to_string()),
            ("phases", sol.phases.to_string()),
            ("commodities", commodities.len().to_string()),
            ("budget_exhausted", sol.budget_exhausted.to_string()),
        ],
    });
    Ok(())
}

/// Scale tier: the symmetry-aggregated FPTAS on the k = 64/128 **Clos**
/// fabric under uniform all-to-all demand — the instance whose full
/// commodity list (millions of switch pairs) no engine could touch, but
/// whose orbit quotient is tiny. Records the end-to-end wall time
/// (distance table + symmetry classes + quotient solve), the orbit
/// collapse ratio, and λ. λ is deterministic and gate-compared exactly.
fn bench_fptas_scale(
    k: usize,
    entries: &mut Vec<BenchEntry>,
    warnings: &mut Vec<String>,
) -> Result<(), CliError> {
    let net = materialize(k, &Mode::Clos)?;
    let max_steps = 3_000;
    let opts = ThroughputOptions {
        max_steps: Some(max_steps),
        ..ThroughputOptions::fptas_with(0.15, SolverKind::Aggregated)
    };
    let (r, ms) = time_ms(|| throughput_all_to_all(&net, opts));
    let r = r.map_err(|e| CliError(e.to_string()))?;
    if r.budget_exhausted {
        warnings.push(crate::metrics::budget_warning(
            &format!("bench fptas/aggregated k={k}"),
            r.lambda,
            max_steps,
        ));
    }
    entries.push(BenchEntry {
        k,
        kernel: "fptas",
        variant: "aggregated",
        ms,
        extras: vec![
            ("lambda", format!("{:.6}", r.lambda)),
            ("commodities", r.commodities.to_string()),
            ("aggregated", r.aggregated.map_or(0, |n| n).to_string()),
            ("budget_exhausted", r.budget_exhausted.to_string()),
        ],
    });
    Ok(())
}

/// Event storm through the ft-des engine: a fixed 32-server all-to-all
/// workload replayed as Poisson arrivals on the fat-tree(k) fabric, no
/// topology events. Records the event-loop throughput (events/s, timing-
/// dependent, not gate-compared) and the completion checksum (gate-
/// compared exactly: the schedule is deterministic for the fixed seed).
///
/// `events_per_sec` is **engine-only**: the max-min solver's wall time
/// (`DesReport::solver_ns`, reported separately as `solver_ms`) is
/// subtracted first. The solver re-solves the link-sharing components a
/// re-allocation's changes reach; when it re-solved every active flow it
/// dominated at large k, which inverted the metric — k = 32 looked 12×
/// *slower* per event than k = 16 even though the event loop itself is
/// size-independent.
fn bench_des(k: usize, entries: &mut Vec<BenchEntry>) -> Result<(), CliError> {
    let net = fat_tree(k).map_err(|e| CliError(e.to_string()))?;
    let servers: Vec<NodeId> = net.servers().take(32).collect();
    let spec = WorkloadSpec {
        pattern: TrafficPattern::AllToAll,
        cluster_size: 8,
        locality: Locality::None,
    };
    let tm = generate_on(&net, &servers, &spec, BENCH_SEED);
    // same workload in --quick and full runs (the k = 8 storm is fast), so
    // the completion checksum stays exactly comparable to the checked-in
    // baseline — bench --check gates des determinism in CI
    let rounds = 6;
    let flows = flows_with_arrivals(&tm, 1.0, 0.5, rounds, BENCH_SEED);
    let sim = DesSimulator::new(&net, RouterPolicy::Ecmp);
    let (rep, ms) = time_ms(|| sim.run(&flows, &[], f64::INFINITY));
    let rep = rep.map_err(|e| CliError(format!("bench des k={k}: {e}")))?;
    let solver_ms = rep.solver_ns as f64 / 1e6;
    let engine_ms = (ms - solver_ms).max(0.0);
    let events_per_sec = if engine_ms > 0.0 {
        rep.events as f64 / (engine_ms / 1e3)
    } else {
        0.0
    };
    entries.push(BenchEntry {
        k,
        kernel: "des",
        variant: "storm",
        ms,
        extras: vec![
            ("events", rep.events.to_string()),
            ("events_per_sec", format!("{events_per_sec:.0}")),
            ("solver_ms", format!("{solver_ms:.3}")),
            ("flows", flows.len().to_string()),
            ("checksum", rep.completion_checksum().to_string()),
        ],
    });
    Ok(())
}

/// FNV-1a offset basis of the path checksums.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one path's edge ids, in order, into an FNV-1a path checksum, then
/// a boundary marker so that paths cannot run together.
fn fold_path(mut hash: u64, edges: &[EdgeId]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for e in edges {
        hash = (hash ^ u64::from(e.0)).wrapping_mul(FNV_PRIME);
    }
    (hash ^ u64::MAX).wrapping_mul(FNV_PRIME)
}

/// Yen's k shortest paths as the DES asks for them once a conversion
/// switches routing to KSP: a fresh [`KspRoutes`] keeping 8 paths per
/// pair over the id-preserving switch view of the global-RG flat-tree(k),
/// queried for every ordered pair of the switches the first 32 servers
/// attach to. Each timed repetition builds a new router, so every pair
/// runs Yen. `checksum` folds every path's edge ids in order (FNV-1a,
/// gate-compared exactly: Yen is deterministic).
fn bench_ksp(k: usize, entries: &mut Vec<BenchEntry>) -> Result<(), CliError> {
    const PATHS: usize = 8;
    let net = materialize(k, &Mode::GlobalRandom)?;
    let view = net.switch_view();
    let mut ends: Vec<NodeId> = net
        .servers()
        .take(32)
        .filter_map(|s| net.try_attachment(s))
        .collect();
    ends.sort_unstable();
    ends.dedup();
    let pairs: Vec<(NodeId, NodeId)> = ends
        .iter()
        .flat_map(|&a| ends.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    let ((paths, checksum), ms) = time_ms(|| {
        let router = KspRoutes::new_on(&view, PATHS);
        let mut paths = 0usize;
        let mut hash = FNV_OFFSET;
        for &(a, b) in &pairs {
            for p in router.paths(a, b) {
                paths += 1;
                hash = fold_path(hash, &p.edges);
            }
        }
        (paths, hash)
    });
    entries.push(BenchEntry {
        k,
        kernel: "ksp",
        variant: "yen",
        ms,
        extras: vec![
            ("pairs", pairs.len().to_string()),
            ("paths", paths.to_string()),
            ("checksum", checksum.to_string()),
        ],
    });
    Ok(())
}

/// ECMP as the DES routes Clos mode: a fresh [`EcmpRoutes`] over
/// fat-tree(k), then 1 000 [`EcmpRoutes::path`] walks with `flow_hash = i`
/// from the i-th switch that servers attach to toward the (7i + 1)-th,
/// cycling through them in id order. Each timed repetition builds a new
/// router, so every destination's distance row is filled again. `hops`
/// totals the switch hops walked; `checksum` folds every path's edge ids
/// as the `ksp/yen` row does (gate-compared exactly: the per-flow hash
/// picks the same path every run).
fn bench_ecmp(k: usize, entries: &mut Vec<BenchEntry>) -> Result<(), CliError> {
    let net = fat_tree(k).map_err(|e| CliError(e.to_string()))?;
    let ends: Vec<NodeId> = (net.switches().zip(net.server_counts()))
        .filter_map(|(switch, servers)| (servers > 0).then_some(switch))
        .collect();
    let (walked, ms) = time_ms(|| {
        let router =
            EcmpRoutes::compute(&net).map_err(|e| CliError(format!("bench ecmp k={k}: {e}")))?;
        let pairs = ends
            .iter()
            .cycle()
            .zip(ends.iter().cycle().skip(1).step_by(7));
        let (mut walks, mut hops, mut hash) = (0usize, 0usize, FNV_OFFSET);
        for (i, (&a, &b)) in (0..1_000).zip(pairs) {
            if let Some(p) = router.path(a, b, i) {
                walks += 1;
                hops += p.edges.len();
                hash = fold_path(hash, &p.edges);
            }
        }
        Ok((walks, hops, hash))
    });
    let (walks, hops, checksum) = walked?;
    entries.push(BenchEntry {
        k,
        kernel: "ecmp",
        variant: "walk",
        ms,
        extras: vec![
            ("walks", walks.to_string()),
            ("hops", hops.to_string()),
            ("checksum", checksum.to_string()),
        ],
    });
    Ok(())
}

/// Splits one line of a bench report into its `"key": value` pairs,
/// quotes stripped: an entry `{…}` or a header pair, either with an
/// optional trailing comma. [`bench_json`] writes every key and value as
/// a plain token (ASCII letters, digits and `._+-/`), so anything else —
/// a stray quote, brace, colon or comma, a space or a non-ASCII character
/// inside a value, an empty value — makes the line `None`.
fn json_fields(line: &str) -> Option<Vec<(&str, &str)>> {
    fn token(s: &str) -> Option<&str> {
        let s = s.trim();
        let s = match s.strip_prefix('"') {
            Some(quoted) => quoted.strip_suffix('"')?,
            None => s,
        };
        let plain = |b: u8| b.is_ascii_alphanumeric() || b"._+-/".contains(&b);
        (!s.is_empty() && s.bytes().all(plain)).then_some(s)
    }
    let line = line.trim();
    let line = line.strip_suffix(',').unwrap_or(line);
    let pairs = match line.strip_prefix('{') {
        Some(object) => object.strip_suffix('}')?,
        None => line,
    };
    (pairs.split(','))
        .map(|pair| {
            let (key, value) = pair.split_once(':')?;
            Some((token(key)?, token(value)?))
        })
        .collect()
}

/// Reads a bench report as [`bench_json`] writes it: `{`, header lines that
/// include the schema [`SCHEMA`], `"entries": [`, one entry per line, `]`
/// and `}`, blank lines aside. Each entry must carry `k`, `kernel`,
/// `variant` and a finite `ms ≥ 0`, name no key twice, and time a
/// (k, kernel, variant) no other entry times.
fn parse_baseline<'a>(path: &str, body: &'a str) -> Result<Vec<BenchEntry<'a>>, CliError> {
    let err = |what: &str| CliError(format!("baseline {path}: {what}"));
    let lines: Vec<(usize, &str)> = body
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| !line.is_empty())
        .collect();
    let opener = lines
        .iter()
        .position(|&(_, line)| line == "\"entries\": [")
        .ok_or_else(|| err("no \"entries\": [ line"))?;
    let ([(_, "{"), header @ ..], [_, rows @ .., (_, "]"), (_, "}")]) = lines.split_at(opener)
    else {
        return Err(err("it does not open with { or close with ] and }"));
    };
    let schema = |&(_, line): &(usize, &str)| json_fields(line) == Some(vec![("schema", SCHEMA)]);
    if !header.iter().any(schema) {
        return Err(err(&format!("no \"schema\": \"{SCHEMA}\" line")));
    }
    let mut entries: Vec<BenchEntry> = Vec::new();
    for &(i, line) in rows {
        let bad = |what: &str| Err(err(&format!("line {}: {what}: {line:?}", i + 1)));
        let Some(fields) = json_fields(line).filter(|_| line.starts_with('{')) else {
            return bad("malformed entry");
        };
        let get = |key: &str| fields.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        let (Some(Ok(k)), Some(kernel), Some(variant), Some(ms)) = (
            get("k").map(str::parse),
            get("kernel"),
            get("variant"),
            get("ms")
                .and_then(|ms| ms.parse::<f64>().ok())
                .filter(|ms| ms.is_finite() && *ms >= 0.0),
        ) else {
            return bad("an entry needs k, kernel, variant and a finite ms ≥ 0");
        };
        let key_twice = (fields.iter().enumerate())
            .any(|(j, (key, _))| fields[..j].iter().any(|(k, _)| k == key));
        let entry_twice =
            (entries.iter()).any(|e| e.k == k && e.kernel == kernel && e.variant == variant);
        if key_twice || entry_twice {
            return bad("repeats a key or an entry");
        }
        let extras = fields
            .iter()
            .filter(|(key, _)| !["k", "kernel", "variant", "ms"].contains(key))
            .map(|&(key, value)| (key, value.to_string()))
            .collect();
        entries.push(BenchEntry {
            k,
            kernel,
            variant,
            ms,
            extras,
        });
    }
    Ok(entries)
}

/// Compares this run's entries against the rows of a baseline report (the
/// regression gate behind `ftctl bench --check`). Every run entry needs a
/// baseline row with its (k, kernel, variant). Per matched row:
///
/// * the median wall time ([`time_ms`]) must stay under
///   `1.25 × baseline + 5 ms` — the grace term keeps sub-millisecond
///   kernels from tripping on scheduler noise;
/// * determinism fields compare **exactly**, a field on one side only
///   included: `checksum`, `dist_sum` always, `lambda` whenever both runs
///   took the same number of steps (a `--quick` run against a full
///   baseline legitimately differs).
///
/// Baseline rows with no counterpart in this run are skipped, so a quick
/// run can be checked against the full checked-in baseline.
fn bench_check(
    path: &str,
    baseline: &[BenchEntry],
    entries: &[BenchEntry],
) -> Result<String, CliError> {
    let mut failures: Vec<String> = Vec::new();
    for new in entries {
        let (k, kernel, variant) = (new.k, new.kernel, new.variant);
        let Some(old) = baseline
            .iter()
            .find(|e| e.k == k && e.kernel == kernel && e.variant == variant)
        else {
            failures.push(format!("k={k} {kernel}/{variant}: no baseline entry"));
            continue;
        };
        let limit = old.ms * 1.25 + 5.0;
        if new.ms > limit {
            failures.push(format!(
                "k={k} {kernel}/{variant}: {:.3} ms exceeds limit {limit:.3} ms \
                 (baseline {:.3} ms + 25% + 5 ms grace)",
                new.ms, old.ms
            ));
        }
        let steps_match = match (old.extra("steps"), new.extra("steps")) {
            (Some(old), Some(cur)) => old == cur,
            _ => true,
        };
        let mut determinism: Vec<&str> = vec!["checksum", "dist_sum"];
        if steps_match {
            determinism.push("lambda");
        }
        for key in determinism {
            let (was, now) = (old.extra(key), new.extra(key));
            if was != now {
                let [was, now] = [was, now].map(|v| v.unwrap_or("absent"));
                failures.push(format!(
                    "k={k} {kernel}/{variant}: {key} diverged from baseline ({was} vs {now})"
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "  check ok against {path} ({} entries)\n",
            entries.len()
        ))
    } else {
        Err(CliError(format!(
            "bench check against {path} failed:\n  {}",
            failures.join("\n  ")
        )))
    }
}

pub(super) fn cmd_bench(inv: &Invocation) -> Result<String, CliError> {
    // a missing or malformed baseline fails before any kernel runs
    let check = inv.options.get("check");
    let body = match check {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read baseline {path}: {e}")))?,
        None => String::new(),
    };
    let baseline = match check {
        Some(path) => parse_baseline(path, &body)?,
        None => Vec::new(),
    };
    let _trace = TraceGuard::from_inv(inv)?;
    let quick = inv.options.contains_key("quick");
    let ks: &[usize] = if quick { &[8] } else { &[8, 16, 32] };
    let threads = par::thread_count();
    let mut entries: Vec<BenchEntry> = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    for &k in ks {
        bench_apsp(k, threads, &mut entries)?;
        bench_dijkstra(k, &mut entries)?;
        bench_fptas(k, quick, &mut entries, &mut warnings)?;
        bench_des(k, &mut entries)?;
        // the DES routes with KSP and ECMP on k = 8 fabrics; k = 16 shows
        // how both scale
        if k <= 16 {
            bench_ksp(k, &mut entries)?;
            bench_ecmp(k, &mut entries)?;
        }
    }
    // Scaling tiers: k = 64 full APSP table and the k = 64 aggregated
    // all-to-all FPTAS ride the quick run so CI gates both the bitset
    // kernel and the symmetry quotient; k = 128 (deduplicated APSP,
    // aggregated FPTAS) runs in full mode only. The k = 64 tier needs an
    // optimized build — at opt-level 0 (unit tests drive quick mode
    // in-process) the scalar reference alone takes tens of seconds, and
    // `bench_check` skips baseline entries with no counterpart, so debug
    // quick runs still check cleanly.
    if !quick || !cfg!(debug_assertions) {
        bench_apsp(64, threads, &mut entries)?;
        bench_fptas_scale(64, &mut entries, &mut warnings)?;
    }
    if !quick {
        bench_apsp_dedup(128, threads, &mut entries)?;
        bench_fptas_scale(128, &mut entries, &mut warnings)?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hot-path benchmark (threads = {threads}, seed = {BENCH_SEED}{})",
        if quick { ", quick" } else { "" }
    );
    for e in &entries {
        let _ = writeln!(
            out,
            "  k={:<2} {:8} {:8} {:10.3} ms",
            e.k, e.kernel, e.variant, e.ms
        );
    }
    // Warnings go to stderr so piped/captured bench output stays
    // machine-readable; a truncated-budget λ is still a lower bound.
    for w in &warnings {
        eprintln!("  {w}");
    }
    if let Some(path) = inv.options.get("json") {
        std::fs::write(path, bench_json(threads, quick, &entries))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "  json written to {path}");
    }
    if let Some(path) = check {
        out.push_str(&bench_check(path, &baseline, &entries)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse, run};

    fn inv(args: &[&str]) -> Invocation {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn bench_quick_reports_all_kernels() {
        let dir = std::env::temp_dir();
        let json = dir.join("ftctl_bench_test.json");
        let loose = dir.join("ftctl_bench_test_loose.json");
        let path = json.to_str().unwrap();
        let out = run(&inv(&["bench", "--quick", "--json", path])).unwrap();
        for token in [
            "apsp", "dijkstra", "fptas", "des", "ksp", "ecmp", "seq", "par", "scratch", "batched",
            "storm", "yen", "walk",
        ] {
            assert!(out.contains(token), "missing {token} in: {out}");
        }
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(
            body.contains("\"schema\": \"ft-hotpaths-bench/1\""),
            "{body}"
        );
        assert!(body.contains("\"lambda\""), "{body}");
        assert!(body.contains("\"checksum\""), "{body}");
        assert!(body.contains("\"budget_exhausted\""), "{body}");
        assert!(body.contains("\"paths\""), "{body}");
        assert!(body.contains("\"walks\""), "{body}");

        // A second run checked against the first repeats every determinism
        // field literally. Its wall times are not compared: two debug-build
        // runs inside a busy test process are too noisy for the 1.25× + 5 ms
        // rule, which `bench_check_flags_regression_and_divergence` covers,
        // so every baseline time is raised to 10⁶ ms first.
        let loosened: String = body
            .lines()
            .map(|l| match l.split_once("\"ms\": ") {
                Some((head, tail)) => {
                    let rest = tail.find(',').map_or("", |i| &tail[i..]);
                    format!("{head}\"ms\": 1000000{rest}\n")
                }
                None => format!("{l}\n"),
            })
            .collect();
        std::fs::write(&loose, loosened).unwrap();
        let loose_path = loose.to_str().unwrap();
        let out = run(&inv(&["bench", "--quick", "--check", loose_path])).unwrap();
        let entries = body.lines().filter(|l| l.contains("\"kernel\"")).count();
        assert!(
            out.contains(&format!(
                "check ok against {loose_path} ({entries} entries)"
            )),
            "{out}"
        );
        let _ = std::fs::remove_file(json);
        let _ = std::fs::remove_file(loose);
    }

    #[test]
    fn json_fields_extracts_fields() {
        let line = r#"{"k": 8, "kernel": "fptas", "ms": 14.103, "lambda": 0.051282},"#;
        assert_eq!(
            json_fields(line),
            Some(vec![
                ("k", "8"),
                ("kernel", "fptas"),
                ("ms", "14.103"),
                ("lambda", "0.051282")
            ])
        );
        let header = r#"  "schema": "ft-hotpaths-bench/1","#;
        assert_eq!(json_fields(header), Some(vec![("schema", SCHEMA)]));
        // a line with a broken pair has no fields at all
        for broken in [
            r#"{"k": 8 "kernel": "fptas"}"#,
            r#"{"k": 8, "kernel": "λ"}"#,
            r#"{"k": 8, "kernel": "fptas""#,
            r#"{"k": 8, "kernel": ""}"#,
            r#"{"k": 8, "kernel": "a b"}"#,
            "{}",
        ] {
            assert_eq!(json_fields(broken), None, "{broken}");
        }
    }

    /// The k = 8 batched-FPTAS row the check tests compare runs against.
    const FPTAS_ROW: &str = r#"{"k": 8, "kernel": "fptas", "variant": "batched", "ms": 10.000, "lambda": 0.051282, "steps": 751}"#;
    /// A row for a second kernel, so that a run can match one row while
    /// another is broken.
    const APSP_ROW: &str = r#"{"k": 8, "kernel": "apsp", "variant": "seq", "ms": 0.044, "nodes": 80, "checksum": 18208}"#;

    /// `bench_check` of a run against a report holding `rows`.
    fn check(rows: &[&str], run: &[BenchEntry]) -> Result<String, String> {
        let body = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"entries\": [\n    {}\n  ]\n}}\n",
            rows.join(",\n    ")
        );
        let baseline = parse_baseline("base.json", &body).map_err(|e| e.0)?;
        bench_check("base.json", &baseline, run).map_err(|e| e.0)
    }

    fn entry(kernel: &str, ms: f64, extras: &[(&'static str, &str)]) -> BenchEntry<'static> {
        let (kernel, variant) = match kernel {
            "apsp" => ("apsp", "seq"),
            _ => ("fptas", "batched"),
        };
        BenchEntry {
            k: 8,
            kernel,
            variant,
            ms,
            extras: extras.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        }
    }

    fn fptas(ms: f64, lambda: &str, steps: &str) -> BenchEntry<'static> {
        entry("fptas", ms, &[("lambda", lambda), ("steps", steps)])
    }

    #[test]
    fn bench_check_flags_regression_and_divergence() {
        // within budget, identical λ → ok
        assert!(check(&[FPTAS_ROW], &[fptas(12.0, "0.051282", "751")]).is_ok());
        // 1.25× + 5 ms grace exceeded → regression
        let err = check(&[FPTAS_ROW], &[fptas(30.0, "0.051282", "751")]).unwrap_err();
        assert!(err.contains("exceeds limit"), "{err}");
        // same steps but different λ → determinism failure
        let err = check(&[FPTAS_ROW], &[fptas(12.0, "0.040000", "751")]).unwrap_err();
        assert!(err.contains("lambda diverged"), "{err}");
        // different step budget → λ legitimately differs, only timing gates
        assert!(check(&[FPTAS_ROW], &[fptas(12.0, "0.040000", "500")]).is_ok());
        // nothing comparable → error, not a silent pass
        assert!(check(&[FPTAS_ROW], &[entry("apsp", 1.0, &[])]).is_err());
    }

    /// A `NaN` or infinite baseline time made the limit `NaN` or infinite,
    /// so the row passed whatever the run took.
    #[test]
    fn baseline_time_must_be_finite_and_non_negative() {
        for ms in ["NaN", "inf", "-inf", "1e309", "-1"] {
            let row = FPTAS_ROW.replace("10.000", ms);
            let err = check(&[&row], &[fptas(12.0, "0.051282", "751")]).unwrap_err();
            assert!(
                err.starts_with("baseline base.json: line 4: an entry needs"),
                "{ms}: {err}"
            );
        }
        assert!(check(&[&FPTAS_ROW.replace("10.000", "0")], &[]).is_ok());
    }

    /// An entry whose `k` or `ms` did not parse, or that lacked a key
    /// field, was skipped while the other rows passed.
    #[test]
    fn baseline_entry_must_parse() {
        for broken in [
            FPTAS_ROW.replace("\"k\": 8", "\"k\": eight"),
            FPTAS_ROW.replace("\"k\": 8", "\"k\": -8"),
            FPTAS_ROW.replace("\"k\": 8, ", ""),
            FPTAS_ROW.replace("\"variant\": \"batched\", ", ""),
            FPTAS_ROW.replace("10.000", "fast"),
            FPTAS_ROW.replace("\"ms\": 10.000, ", ""),
            FPTAS_ROW.replace(", \"steps\": 751", ", \"steps\": 751, \"steps\": 500"),
            FPTAS_ROW.replace('}', ""),
        ] {
            let err = check(
                &[APSP_ROW, &broken],
                &[entry("apsp", 0.05, &[("checksum", "18208")])],
            )
            .unwrap_err();
            assert!(
                err.starts_with("baseline base.json: line 5: "),
                "{broken}: {err}"
            );
        }
    }

    /// A determinism key on one side only was never compared: renaming the
    /// baseline's `checksum` key passed any checksum.
    #[test]
    fn determinism_key_on_one_side_fails() {
        let run = [entry("apsp", 0.05, &[("checksum", "18208")])];
        assert!(check(&[APSP_ROW], &run).is_ok());
        let renamed = APSP_ROW.replace("checksum", "checksum_old");
        let err = check(&[&renamed], &run).unwrap_err();
        assert!(
            err.contains("checksum diverged from baseline (absent vs 18208)"),
            "{err}"
        );
        let err = check(&[APSP_ROW], &[entry("apsp", 0.05, &[])]).unwrap_err();
        assert!(
            err.contains("checksum diverged from baseline (18208 vs absent)"),
            "{err}"
        );
        let err = check(
            &[&APSP_ROW.replace("checksum", "dist_sum")],
            &[entry("apsp", 0.05, &[])],
        )
        .unwrap_err();
        assert!(
            err.contains("dist_sum diverged from baseline (18208 vs absent)"),
            "{err}"
        );
        // λ on one side fails when the steps agree, not when they differ
        let no_lambda = FPTAS_ROW.replace("\"lambda\": 0.051282, ", "");
        let err = check(&[&no_lambda], &[fptas(12.0, "0.051282", "751")]).unwrap_err();
        assert!(
            err.contains("lambda diverged from baseline (absent vs 0.051282)"),
            "{err}"
        );
        assert!(check(&[&no_lambda], &[fptas(12.0, "0.051282", "500")]).is_ok());
    }

    /// A run entry with no baseline row was never checked.
    #[test]
    fn run_entry_without_baseline_row_fails() {
        let run = [
            fptas(12.0, "0.051282", "751"),
            entry("apsp", 0.05, &[("checksum", "18208")]),
        ];
        let err = check(&[FPTAS_ROW], &run).unwrap_err();
        assert!(err.contains("k=8 apsp/seq: no baseline entry"), "{err}");
        // a baseline row with no run entry is fine: quick runs cover less
        assert!(check(&[FPTAS_ROW, APSP_ROW], &run[..1]).is_ok());
    }

    /// The checked-in baseline, whose rows the soup below mutates.
    const BASELINE: &str = include_str!("../../BENCH_hotpaths.json");
    /// Values a soup writes over a field: (value, valid as `k`, valid as
    /// `ms`, valid as any other field).
    const SOUP_EDGES: &[(&str, bool, bool, bool)] = &[
        ("NaN", false, false, true),
        ("inf", false, false, true),
        ("-1", false, false, true),
        ("1e309", false, false, true),
        ("18446744073709551616", false, true, true),
        ("\"λ\"", false, false, false),
        ("\"\"", false, false, false),
        ("\"a b\"", false, false, false),
        ("7", true, true, true),
    ];

    /// One soup entry line from a real row's `"key": value` pairs: kept,
    /// rotated, with a pair dropped, doubled or overwritten by a
    /// [`SOUP_EDGES`] value, truncated, or without a brace or comma.
    /// Returns the line and, when the reader must accept it, its pairs.
    fn soup_entry(
        mut pairs: Vec<String>,
        shape: u8,
        a: usize,
        b: usize,
    ) -> (String, Option<Vec<String>>) {
        let n = pairs.len();
        let key_of = |pair: &str| {
            pair.split(':')
                .next()
                .unwrap_or("")
                .trim_matches('"')
                .to_string()
        };
        let required = ["k", "kernel", "variant", "ms"].contains(&key_of(&pairs[a % n]).as_str());
        let object = |pairs: &[String]| format!("{{{}}}", pairs.join(", "));
        let valid = match shape {
            0 => true,
            1 => {
                pairs.rotate_left(a % n);
                true
            }
            2 => {
                pairs.remove(a % n);
                !required
            }
            3 => {
                pairs.push(pairs[a % n].clone());
                false
            }
            4 => {
                let (value, as_k, as_ms, as_other) = SOUP_EDGES[b % SOUP_EDGES.len()];
                let key = key_of(&pairs[a % n]);
                pairs[a % n] = format!("\"{key}\": {value}");
                match key.as_str() {
                    "k" => as_k,
                    "ms" => as_ms,
                    _ => as_other,
                }
            }
            5 => {
                let line = object(&pairs);
                return (line[..2 + b % (line.len() - 3)].to_string(), None);
            }
            6 => return (object(&pairs)[1..].to_string(), None),
            7 => {
                let line = object(&pairs);
                return (line[..line.len() - 1].to_string(), None);
            }
            _ => {
                let i = a % (n - 1);
                return (
                    format!(
                        "{{{} {}}}",
                        pairs[..=i].join(", "),
                        pairs[i + 1..].join(", ")
                    ),
                    None,
                );
            }
        };
        (object(&pairs), valid.then_some(pairs))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]
        /// No soup of real baseline rows panics the report reader or
        /// [`json_fields`]. The reader accepts a soup exactly when every
        /// line is well formed and the schema line is intact, and then
        /// returns one row per entry line with that line's key and time.
        #[test]
        fn parse_baseline_fuzz(
            frame in 0u8..10,
            lines in proptest::collection::vec((0usize..64, 0u8..9, 0usize..16, 0usize..1000), 0..6)
        ) {
            let rows: Vec<&str> = BASELINE.lines().map(str::trim).filter(|l| l.starts_with("{\"")).collect();
            // frame 1 drops the schema line, 2 names another schema, 4
            // drops the opening brace, 5 the closing one and 6 both closing
            // lines; 3 breaks the other header values, which nothing reads,
            // and the rest keep the frame
            let mut body = String::from(if frame == 4 { "\n" } else { "{\n" });
            for line in BASELINE.lines().skip(1).take(4) {
                let line = match (frame, line.contains("schema")) {
                    (1, true) => String::new(),
                    (2, true) => line.replace("/1", "/2"),
                    (3, false) => line.replace(": ", ": λ"),
                    _ => line.to_string(),
                };
                body.push_str(&line);
                body.push('\n');
            }
            let mut valid = !matches!(frame, 1 | 2 | 4..=6);
            body.push_str("  \"entries\": [\n");
            let mut expect: Vec<(String, String, String, String)> = Vec::new();
            for (i, &(row, shape, a, b)) in lines.iter().enumerate() {
                let pairs: Vec<String> = rows[row % rows.len()]
                    .trim_start_matches('{')
                    .trim_end_matches(',')
                    .trim_end_matches('}')
                    .split(", ")
                    .map(str::to_string)
                    .collect();
                let (line, kept) = soup_entry(pairs, shape, a, b);
                let comma = if i + 1 < lines.len() { "," } else { "" };
                body.push_str(&format!("    {line}{comma}\n"));
                let kernel = json_fields(&line)
                    .and_then(|fields| fields.into_iter().find(|&(k, _)| k == "kernel"))
                    .map(|(_, v)| v);
                match kept {
                    Some(pairs) => {
                        let get = |key: &str| {
                            pairs
                                .iter()
                                .find_map(|p| p.strip_prefix(&format!("\"{key}\": ")))
                                .map(|v| v.trim_matches('"').to_string())
                                .unwrap_or_default()
                        };
                        let key = (get("k"), get("kernel"), get("variant"), get("ms"));
                        proptest::prop_assert_eq!(kernel, Some(key.1.as_str()));
                        valid &= !expect.iter().any(|e| e.0 == key.0 && e.1 == key.1 && e.2 == key.2);
                        expect.push(key);
                    }
                    None => valid = false,
                }
            }
            body.push_str(match frame {
                5 => "  ]\n",
                6 => "",
                _ => "  ]\n}\n",
            });
            match parse_baseline("soup.json", &body) {
                Ok(got) => {
                    proptest::prop_assert!(valid, "accepted a broken report:\n{body}");
                    proptest::prop_assert_eq!(got.len(), expect.len());
                    for (row, e) in got.iter().zip(&expect) {
                        proptest::prop_assert!(row.ms.is_finite() && row.ms >= 0.0, "{body}");
                        proptest::prop_assert_eq!(
                            (row.k.to_string(), row.kernel, row.variant),
                            (e.0.clone(), e.1.as_str(), e.2.as_str())
                        );
                        let ms = e.3.parse::<f64>().map_or(0, f64::to_bits);
                        proptest::prop_assert_eq!(row.ms.to_bits(), ms);
                    }
                }
                Err(e) => proptest::prop_assert!(!valid, "rejected a good report ({e}):\n{body}"),
            }
        }
    }
}
