//! Command-line interface backing the `ftctl` binary.
//!
//! Hand-rolled argument handling (the workspace's dependency policy has no
//! CLI crate) with the command logic separated from I/O so it is unit
//! testable: every command produces a [`String`] report, and the binary
//! just prints it.
//!
//! ```text
//! ftctl topo    --kind fat-tree|random-graph|two-stage|flat-tree -k 8
//!               [--mode clos|local-rg|global-rg] [--seed S] [--dot F] [--json F]
//! ftctl metrics --kind … -k 8 [--mode …] [--seed S]
//! ftctl convert -k 8 --from <mode> --to <mode>
//! ftctl profile -k 8
//! ftctl serve   -k 8 [--port 0] [--workers 4] [--cache 8] [--queue 64]
//! ftctl query   -k 8 --req "paths mode=global-rg; stats"
//! ```

mod bench;

use crate::control::{plan_transition, plan_zone_transition, Zone};
use crate::core::PodMode;
use crate::core::{profile_mn, FlatTree, FlatTreeConfig, Mode};
use crate::graph::bridges::bridges;
use crate::graph::stats::{diameter, mean_degree};
use crate::metrics::bisection::random_bisection_bandwidth;
use crate::metrics::path_length::{
    average_intra_pod_path_length_with, average_server_path_length_with, SwitchDistances,
};
use crate::serve::{serve_listener, ServeConfig, Service};
use crate::sim::{flows_with_arrivals, ConversionEvent, DesSimulator, RouterPolicy, TopoEvent};
use crate::topo::export::{to_dot, to_json};
use crate::topo::{
    fat_tree, jellyfish_matching_fat_tree, two_stage_random_graph, Network, TwoStageParams,
};
use crate::workload::{generate, Locality, TrafficPattern, WorkloadSpec};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A parsed command line: subcommand plus `--flag value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// The subcommand (`topo`, `metrics`, `convert`, `profile`).
    pub command: String,
    /// Flag values, keys without the leading `--`.
    pub options: HashMap<String, String>,
    /// Bare (non-flag) arguments, in order. Only commands listed in
    /// `POSITIONAL_COMMANDS` accept them; elsewhere a bare token is
    /// still a parse error.
    pub positional: Vec<String>,
}

/// Errors surfaced to the user as friendly messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text shown by `--help` and on parse errors.
pub const USAGE: &str = "\
ftctl — flat-tree topology tool

USAGE:
  ftctl topo    --kind <fat-tree|random-graph|two-stage|flat-tree> -k <even>
                [--mode <clos|local-rg|global-rg>] [--seed <u64>]
                [--dot <file>] [--json <file>]
  ftctl metrics --kind <…> -k <even> [--mode <…>] [--seed <u64>]
  ftctl convert -k <even> --from <mode> --to <mode>
  ftctl profile -k <even>
  ftctl serve   -k <even> [--port <u16, default 0 = OS-picked>]
                [--workers <n>] [--cache <n>] [--queue <n>]
                [--window <epoch ms, default 1000; 0 disables>]
                [--trace <file.jsonl>]
  ftctl query   -k <even> [--req \"<ftq line>[; <ftq line>…]\"] [--workers <n>]
                [--trace <file.jsonl>]
  ftctl sim     --scenario <file> [--quick] [--json <file|->]
                [--events <file.jsonl>] [--trace <file.jsonl>]
  ftctl bench   [--json <file>] [--quick] [--check <baseline.json>]
                [--trace <file.jsonl>]
  ftctl lint    [--json <file|->] [--sarif <file|->] [--fix-allow]
                [--root <dir, default .>]
  ftctl trace   <spans.jsonl> [--top <n, default 15>] [--diff <old.jsonl>]
                [--chrome <file.json>] [--folded <file.folded>]

Topology kinds build from the same equipment as fat-tree(k). flat-tree
requires --mode; other kinds ignore it.

serve runs the resident FTQ/1 query service on localhost TCP until a client
sends `shutdown`; query boots the same service in-process, issues the
`;`-separated request lines, and prints each reply (protocol verbs:
topo | paths | throughput | plan | convert | stats | metrics | shutdown;
`metrics` replies with a Prometheus-style exposition, one metric per line).

--trace enables the ft-obs instrumentation for the run and streams
structured spans (one JSON object per line) to the given file; without it
all instrumentation stays off at a single atomic-load cost per site.

sim runs a seeded scenario on the ft-des discrete-event engine: a workload
replayed as Poisson flow arrivals over a flat-tree, optionally with one
live zone conversion (drained links, converter latency, re-routed flows).
The scenario file is `key = value` lines (# comments): k, policy
(ecmp | ksp:<n> with 1 ≤ n ≤ 64 paths per switch pair; ksp = ksp:8),
from (initial mode), to (target mode) or to-zones (name:lo..hi:mode,…),
convert-at, latency, new-policy (as policy), workload
(hotspot | all-to-all | permutation), cluster-size, locality
(strong | weak | none), seed, size, rate, rounds, capacity, horizon.
--json writes the ft-des-sim/1 summary (no wall-clock fields, so two runs
of one scenario compare bit-for-bit); --events streams the per-event JSONL
trace; --quick caps the arrival rounds at 1. See scenarios/*.scn.

bench times the hot-path kernels (CSR BFS-APSP sequential vs parallel,
the FPTAS's shortest-path tree kernel, the source-batched FPTAS
throughput solve, and a
ft-des event storm reporting engine-only events/s plus solver_ms) on
fixed seeds at k ∈ {8, 16, 32}, Yen's 8 shortest paths between the
global-RG flat-tree's server switches and 1 000 ECMP path walks on the
fat-tree at k ∈ {8, 16}, plus scale tiers:
the k = 64 symmetry-aggregated all-to-all FPTAS (quick runs too,
release builds only) and the k = 128 aggregated FPTAS and deduplicated
APSP (full runs only). Optionally writes a JSON report (--quick
restricts the classic sizes to k = 8 with a shorter FPTAS step cap).
--check compares the run against a previously written report, read and
validated before any kernel runs: every kernel needs a baseline entry,
determinism fields (checksums, distance sums, λ at matching step budgets)
must match exactly, and any kernel whose median of 3 timed runs is slower
than 1.25× baseline + 5 ms fails the run.
The worker count honours the FT_THREADS environment override.

lint runs the ft-lint analyzer (hygiene, determinism, and concurrency rule
packs — see DESIGN.md §13) over the workspace. --json writes the ft-lint/2
machine-readable report, --sarif a SARIF 2.1.0 log (`-` = stdout);
--fix-allow rewrites lint-allow.toml, deleting entries that no longer
suppress anything. Violations and stale allow entries exit non-zero.

trace analyzes a span JSONL file produced by --trace: per-name aggregates
(count, total/self time, p50/p95), the critical path under each root span
(which FPTAS phase or DES epoch dominated), and — when the
run performed a live conversion — the per-epoch disruption timeline.
--diff compares an older trace against this one and ranks span names by
total-time delta (regression attribution); --chrome exports Chrome
trace-event JSON (chrome://tracing, Perfetto); --folded writes collapsed
stacks weighted by self time for flamegraph tools.";

/// Flags that take no value; `parse` records them as `\"true\"`.
const BOOL_FLAGS: &[&str] = &["quick", "fix-allow"];

/// Commands whose bare arguments are collected as positionals instead of
/// being rejected (`ftctl trace <file.jsonl>`).
const POSITIONAL_COMMANDS: &[&str] = &["trace"];

/// Splits raw arguments into an [`Invocation`].
pub fn parse(args: &[String]) -> Result<Invocation, CliError> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| CliError(format!("missing subcommand\n\n{USAGE}")))?
        .clone();
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(Invocation {
            command: "help".into(),
            options: HashMap::new(),
            positional: Vec::new(),
        });
    }
    let allow_positional = POSITIONAL_COMMANDS.contains(&command.as_str());
    let mut options = HashMap::new();
    let mut positional = Vec::new();
    while let Some(flag) = it.next() {
        let key = match flag.strip_prefix("--").or_else(|| flag.strip_prefix('-')) {
            Some(key) => key,
            None if allow_positional => {
                positional.push(flag.clone());
                continue;
            }
            None => {
                return Err(CliError(format!(
                    "expected a flag, got {flag:?}\n\n{USAGE}"
                )))
            }
        };
        if BOOL_FLAGS.contains(&key) {
            options.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| CliError(format!("flag --{key} needs a value")))?;
        options.insert(key.to_string(), value.clone());
    }
    Ok(Invocation {
        command,
        options,
        positional,
    })
}

fn get_k(inv: &Invocation) -> Result<usize, CliError> {
    let k: usize = inv
        .options
        .get("k")
        .ok_or_else(|| CliError("missing -k <even fat-tree parameter>".into()))?
        .parse()
        .map_err(|_| CliError("-k must be an integer".into()))?;
    if k < 4 || !k.is_multiple_of(2) {
        return Err(CliError(format!("-k must be even and ≥ 4, got {k}")));
    }
    Ok(k)
}

fn get_seed(inv: &Invocation) -> Result<u64, CliError> {
    match inv.options.get("seed") {
        None => Ok(1),
        Some(s) => s
            .parse()
            .map_err(|_| CliError("--seed must be an integer".into())),
    }
}

fn parse_mode(s: &str) -> Result<Mode, CliError> {
    match s {
        "clos" => Ok(Mode::Clos),
        "local-rg" | "local" => Ok(Mode::LocalRandom),
        "global-rg" | "global" => Ok(Mode::GlobalRandom),
        other => Err(CliError(format!(
            "unknown mode {other:?} (use clos | local-rg | global-rg)"
        ))),
    }
}

fn build_network(inv: &Invocation) -> Result<Network, CliError> {
    let k = get_k(inv)?;
    let seed = get_seed(inv)?;
    let kind = inv
        .options
        .get("kind")
        .map(String::as_str)
        .unwrap_or("flat-tree");
    match kind {
        "fat-tree" => fat_tree(k).map_err(|e| CliError(e.to_string())),
        "random-graph" => jellyfish_matching_fat_tree(k, seed).map_err(|e| CliError(e.to_string())),
        "two-stage" => two_stage_random_graph(
            TwoStageParams::matching_fat_tree(k).map_err(|e| CliError(e.to_string()))?,
            seed,
        )
        .map_err(|e| CliError(e.to_string())),
        "flat-tree" => {
            let mode = parse_mode(
                inv.options
                    .get("mode")
                    .map(String::as_str)
                    .unwrap_or("clos"),
            )?;
            materialize(k, &mode)
        }
        other => Err(CliError(format!(
            "unknown --kind {other:?} (use fat-tree | random-graph | two-stage | flat-tree)"
        ))),
    }
}

/// The flat-tree built from fat-tree(k)'s equipment with the paper's
/// profiled (m, n), materialized in `mode`.
fn materialize(k: usize, mode: &Mode) -> Result<Network, CliError> {
    let cfg = FlatTreeConfig::for_fat_tree_k(k).map_err(|e| CliError(e.to_string()))?;
    let ft = FlatTree::new(cfg).map_err(|e| CliError(e.to_string()))?;
    ft.materialize(mode).map_err(|e| CliError(e.to_string()))
}

/// Executes a parsed invocation, returning the report to print.
pub fn run(inv: &Invocation) -> Result<String, CliError> {
    match inv.command.as_str() {
        "help" => Ok(USAGE.to_string()),
        "topo" => cmd_topo(inv),
        "metrics" => cmd_metrics(inv),
        "convert" => cmd_convert(inv),
        "profile" => cmd_profile(inv),
        "serve" => cmd_serve(inv),
        "query" => cmd_query(inv),
        "sim" => cmd_sim(inv),
        "bench" => bench::cmd_bench(inv),
        "lint" => cmd_lint(inv),
        "trace" => cmd_trace(inv),
        other => Err(CliError(format!("unknown subcommand {other:?}\n\n{USAGE}"))),
    }
}

fn cmd_topo(inv: &Invocation) -> Result<String, CliError> {
    let net = build_network(inv)?;
    let mut out = String::new();
    let eq = net.equipment();
    let _ = writeln!(out, "{}", net.name());
    let _ = writeln!(
        out,
        "  switches: {}   servers: {}   links: {}",
        eq.switches, eq.servers, eq.links
    );
    if let Some(path) = inv.options.get("dot") {
        std::fs::write(path, to_dot(&net))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "  dot written to {path}");
    }
    if let Some(path) = inv.options.get("json") {
        std::fs::write(path, to_json(&net))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "  json written to {path}");
    }
    Ok(out)
}

fn cmd_metrics(inv: &Invocation) -> Result<String, CliError> {
    let net = build_network(inv)?;
    let k = get_k(inv)?;
    let sg = net.switch_graph();
    // one hosting-switch table for both averages (bit-identical to the
    // per-call fills)
    let dist = SwitchDistances::compute(&net);
    let mut out = String::new();
    let _ = writeln!(out, "{}", net.name());
    let _ = writeln!(
        out,
        "  average path length (servers): {:.4}",
        average_server_path_length_with(&net, &dist)
    );
    let _ = writeln!(
        out,
        "  intra-pod path length:         {:.4}",
        average_intra_pod_path_length_with(&net, k * k / 4, &dist)
    );
    let _ = writeln!(
        out,
        "  switch diameter:               {}",
        diameter(&sg).map(|d| d.to_string()).unwrap_or("∞".into())
    );
    let _ = writeln!(
        out,
        "  mean switch degree:            {:.2}",
        mean_degree(&sg)
    );
    let _ = writeln!(
        out,
        "  fabric bridges:                {}",
        bridges(&sg).len()
    );
    let _ = writeln!(
        out,
        "  random-bisection bandwidth:    {}",
        random_bisection_bandwidth(&net, 16, get_seed(inv)?)
    );
    Ok(out)
}

fn cmd_convert(inv: &Invocation) -> Result<String, CliError> {
    let k = get_k(inv)?;
    let from = parse_mode(
        inv.options
            .get("from")
            .ok_or_else(|| CliError("missing --from <mode>".into()))?,
    )?;
    let to = parse_mode(
        inv.options
            .get("to")
            .ok_or_else(|| CliError("missing --to <mode>".into()))?,
    )?;
    let cfg = FlatTreeConfig::for_fat_tree_k(k).map_err(|e| CliError(e.to_string()))?;
    let ft = FlatTree::new(cfg).map_err(|e| CliError(e.to_string()))?;
    let a = ft.resolve(&from).map_err(|e| CliError(e.to_string()))?;
    let b = ft.resolve(&to).map_err(|e| CliError(e.to_string()))?;
    let plan = crate::control::plan_transition(&ft, &a, &b).map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "conversion {} → {} (k = {k})",
        from.label(),
        to.label()
    );
    let _ = writeln!(
        out,
        "  converter reprogramming ops: {} ({} four-port, {} six-port)",
        plan.converter_ops(),
        plan.four_changes.len(),
        plan.six_changes.len()
    );
    let _ = writeln!(
        out,
        "  logical links rewired:       {} removed, {} added",
        plan.links_removed.len(),
        plan.links_added.len()
    );
    Ok(out)
}

fn cmd_profile(inv: &Invocation) -> Result<String, CliError> {
    let k = get_k(inv)?;
    let result = profile_mn(k, 1).map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profiling sweep for k = {k} (global-RG average path length):"
    );
    for p in &result.points {
        let mark = if (p.m, p.n) == (result.best.m, result.best.n) {
            "  ← best"
        } else {
            ""
        };
        let _ = writeln!(out, "  m = {}, n = {}: {:.4}{mark}", p.m, p.n, p.apl);
    }
    Ok(out)
}

/// Arms the ft-obs trace sink when `--trace <file>` is present. The guard
/// disables instrumentation and flushes/closes the sink on drop, so spans
/// land on disk even when the command errors out.
struct TraceGuard {
    armed: bool,
}

impl TraceGuard {
    fn from_inv(inv: &Invocation) -> Result<TraceGuard, CliError> {
        let Some(path) = inv.options.get("trace") else {
            return Ok(TraceGuard { armed: false });
        };
        ft_obs::install_file_sink(path)
            .map_err(|e| CliError(format!("cannot open trace file {path}: {e}")))?;
        ft_obs::set_enabled(true);
        Ok(TraceGuard { armed: true })
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.armed {
            ft_obs::set_enabled(false);
            ft_obs::take_sink();
        }
    }
}

fn get_usize_opt(inv: &Invocation, key: &str) -> Result<Option<usize>, CliError> {
    match inv.options.get(key) {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| CliError(format!("--{key} must be an integer"))),
    }
}

/// Builds a [`ServeConfig`] from `-k` plus the optional
/// `--workers`/`--cache`/`--queue` overrides.
fn serve_config(inv: &Invocation) -> Result<ServeConfig, CliError> {
    let mut cfg = ServeConfig::for_k(get_k(inv)?);
    if let Some(w) = get_usize_opt(inv, "workers")? {
        cfg.workers = w;
    }
    if let Some(c) = get_usize_opt(inv, "cache")? {
        cfg.cache_capacity = c;
    }
    if let Some(q) = get_usize_opt(inv, "queue")? {
        cfg.queue_depth = q;
    }
    if let Some(w) = inv.options.get("window") {
        cfg.window_epoch_ms = w
            .parse()
            .map_err(|_| CliError("--window must be an integer (epoch ms; 0 disables)".into()))?;
    }
    Ok(cfg)
}

fn cmd_serve(inv: &Invocation) -> Result<String, CliError> {
    let _trace = TraceGuard::from_inv(inv)?;
    let cfg = serve_config(inv)?;
    let port: u16 = match inv.options.get("port") {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| CliError("--port must be a u16".into()))?,
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| CliError(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let addr = listener.local_addr().map_err(|e| CliError(e.to_string()))?;
    // Announced eagerly: the report string below only materializes once a
    // client sends `shutdown`, and the caller needs the port before that.
    println!("ftctl serve: listening on {addr} (FTQ/1; send `shutdown` to stop)");
    serve_listener(listener, cfg).map_err(|e| CliError(e.to_string()))
}

fn cmd_query(inv: &Invocation) -> Result<String, CliError> {
    let _trace = TraceGuard::from_inv(inv)?;
    let cfg = serve_config(inv)?;
    let requests: Vec<String> = inv
        .options
        .get("req")
        .map(String::as_str)
        .unwrap_or("topo")
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if requests.is_empty() {
        return Err(CliError("--req contained no request lines".into()));
    }
    let (replies, _report) = Service::run(cfg, |h| {
        requests
            .iter()
            .map(|r| h.request(r))
            .collect::<Vec<String>>()
    })
    .map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    for reply in replies {
        let _ = writeln!(out, "{reply}");
    }
    Ok(out)
}

/// One parsed `key = value` simulation scenario (see `scenarios/*.scn`).
struct Scenario {
    k: usize,
    policy: RouterPolicy,
    from: Mode,
    to: Option<ScenarioTarget>,
    convert_at: f64,
    latency: f64,
    new_policy: Option<RouterPolicy>,
    workload: WorkloadSpec,
    seed: u64,
    size: f64,
    rate: f64,
    rounds: usize,
    capacity: f64,
    horizon: f64,
}

/// What the scenario converts to: a uniform mode or a zone layout.
enum ScenarioTarget {
    Mode(Mode),
    Zones(Vec<Zone>),
}

/// Most paths a scenario's `ksp:<n>` may keep per switch pair: 8× the
/// paper's 8 (Jellyfish's choice). Yen's work grows with n, so a larger
/// count is a typo, not a routing policy.
const MAX_KSP_PATHS: usize = 64;

/// Parses the value of the scenario key `key` (`policy` or `new-policy`).
fn parse_policy(key: &str, s: &str) -> Result<RouterPolicy, CliError> {
    if s == "ecmp" {
        return Ok(RouterPolicy::Ecmp);
    }
    if s == "ksp" {
        return Ok(RouterPolicy::Ksp(8));
    }
    if let Some(n) = s.strip_prefix("ksp:") {
        let n: usize = n
            .parse()
            .map_err(|_| CliError(format!("scenario key {key}: bad ksp path count {n:?}")))?;
        if !(1..=MAX_KSP_PATHS).contains(&n) {
            return Err(CliError(format!(
                "scenario key {key}: ksp path count must be 1..={MAX_KSP_PATHS}, got {n}"
            )));
        }
        return Ok(RouterPolicy::Ksp(n));
    }
    Err(CliError(format!(
        "scenario key {key}: unknown policy {s:?} (use ecmp | ksp:<n>)"
    )))
}

fn parse_pod_mode(s: &str) -> Result<PodMode, CliError> {
    match s {
        "clos" => Ok(PodMode::Clos),
        "local-rg" | "local" => Ok(PodMode::LocalRandom),
        "global-rg" | "global" => Ok(PodMode::GlobalRandom),
        other => Err(CliError(format!(
            "unknown zone mode {other:?} (use clos | local-rg | global-rg)"
        ))),
    }
}

/// Parses `name:lo..hi:mode[,name:lo..hi:mode…]` into a zone layout.
fn parse_zones(s: &str) -> Result<Vec<Zone>, CliError> {
    let mut zones = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        let mut it = part.splitn(3, ':');
        let (Some(name), Some(range), Some(mode)) = (it.next(), it.next(), it.next()) else {
            return Err(CliError(format!(
                "bad zone {part:?} (expected name:lo..hi:mode)"
            )));
        };
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| CliError(format!("bad pod range {range:?} (expected lo..hi)")))?;
        let lo: usize = lo
            .parse()
            .map_err(|_| CliError(format!("bad pod index {lo:?}")))?;
        let hi: usize = hi
            .parse()
            .map_err(|_| CliError(format!("bad pod index {hi:?}")))?;
        zones.push(Zone::new(name, lo..hi, parse_pod_mode(mode)?));
    }
    Ok(zones)
}

fn parse_scenario(text: &str) -> Result<Scenario, CliError> {
    let mut sc = Scenario {
        k: 4,
        policy: RouterPolicy::Ecmp,
        from: Mode::Clos,
        to: None,
        convert_at: 5.0,
        latency: 0.5,
        new_policy: None,
        workload: WorkloadSpec {
            pattern: TrafficPattern::AllToAll,
            cluster_size: 8,
            locality: Locality::None,
        },
        seed: 1,
        size: 1.0,
        rate: 0.5,
        rounds: 4,
        capacity: 1.0,
        horizon: 1e9,
    };
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| CliError(format!("scenario line {}: expected key = value", ln + 1)))?;
        let (key, value) = (key.trim(), value.trim());
        let bad_num = |k: &str, v: &str| CliError(format!("scenario key {k}: bad number {v:?}"));
        match key {
            "k" => sc.k = value.parse().map_err(|_| bad_num(key, value))?,
            "policy" => sc.policy = parse_policy(key, value)?,
            "new-policy" => sc.new_policy = Some(parse_policy(key, value)?),
            "from" => sc.from = parse_mode(value)?,
            "to" => sc.to = Some(ScenarioTarget::Mode(parse_mode(value)?)),
            "to-zones" => sc.to = Some(ScenarioTarget::Zones(parse_zones(value)?)),
            "convert-at" => sc.convert_at = value.parse().map_err(|_| bad_num(key, value))?,
            "latency" => sc.latency = value.parse().map_err(|_| bad_num(key, value))?,
            "seed" => sc.seed = value.parse().map_err(|_| bad_num(key, value))?,
            "size" => sc.size = value.parse().map_err(|_| bad_num(key, value))?,
            "rate" => sc.rate = value.parse().map_err(|_| bad_num(key, value))?,
            "rounds" => sc.rounds = value.parse().map_err(|_| bad_num(key, value))?,
            "capacity" => sc.capacity = value.parse().map_err(|_| bad_num(key, value))?,
            "horizon" => sc.horizon = value.parse().map_err(|_| bad_num(key, value))?,
            "cluster-size" => {
                sc.workload.cluster_size = value.parse().map_err(|_| bad_num(key, value))?
            }
            "workload" => {
                sc.workload.pattern = match value {
                    "hotspot" | "hot-spot" => TrafficPattern::HotSpot,
                    "all-to-all" => TrafficPattern::AllToAll,
                    "permutation" => TrafficPattern::Permutation,
                    other => {
                        return Err(CliError(format!(
                            "unknown workload {other:?} (use hotspot | all-to-all | permutation)"
                        )))
                    }
                }
            }
            "locality" => {
                sc.workload.locality = match value {
                    "strong" => Locality::Strong,
                    "weak" => Locality::Weak,
                    "none" => Locality::None,
                    other => {
                        return Err(CliError(format!(
                            "unknown locality {other:?} (use strong | weak | none)"
                        )))
                    }
                }
            }
            other => {
                return Err(CliError(format!(
                    "scenario line {}: unknown key {other:?}",
                    ln + 1
                )))
            }
        }
    }
    // Values the simulator would assert on are refused here, where the
    // file is read, rather than panicking mid-run.
    for (key, v) in [
        ("capacity", sc.capacity),
        ("size", sc.size),
        ("rate", sc.rate),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(CliError(format!(
                "scenario key {key}: must be finite and positive, got {v}"
            )));
        }
    }
    if sc.workload.cluster_size == 0 {
        return Err(CliError(
            "scenario key cluster-size: must be at least 1".into(),
        ));
    }
    if !(sc.latency.is_finite() && sc.latency >= 0.0) {
        return Err(CliError(format!(
            "scenario key latency: must be finite and >= 0, got {}",
            sc.latency
        )));
    }
    Ok(sc)
}

/// Expresses a uniform starting mode as a zone layout: Clos is the empty
/// layout (unclaimed Pods default to Clos), anything else is one
/// all-Pods zone.
fn baseline_zones(from: &Mode, pods: usize) -> Vec<Zone> {
    let pod_mode = match from {
        Mode::Clos => return Vec::new(),
        Mode::LocalRandom => PodMode::LocalRandom,
        Mode::GlobalRandom => PodMode::GlobalRandom,
        Mode::Hybrid(_) => return Vec::new(), // scenario modes are never hybrid
    };
    vec![Zone::new("all", 0..pods, pod_mode)]
}

/// Renders the deterministic `ft-des-sim/1` summary. Deliberately free of
/// wall-clock fields so summaries from different thread counts (or
/// machines) can be byte-compared — the CI determinism gate does exactly
/// that.
fn sim_summary_json(
    sc: &Scenario,
    flows: &[crate::sim::FlowSpec],
    rep: &crate::sim::DesReport,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"ft-des-sim/1\",");
    let _ = writeln!(s, "  \"k\": {},", sc.k);
    let _ = writeln!(s, "  \"seed\": {},", sc.seed);
    let _ = writeln!(s, "  \"flows\": {},", flows.len());
    let _ = writeln!(s, "  \"finished\": {},", flows.len() - rep.unfinished());
    let _ = writeln!(s, "  \"unfinished\": {},", rep.unfinished());
    let mean = rep.mean_fct(flows);
    let _ = if mean.is_finite() {
        writeln!(s, "  \"mean_fct\": {mean:.9},")
    } else {
        writeln!(s, "  \"mean_fct\": null,")
    };
    let _ = writeln!(s, "  \"makespan\": {:.9},", rep.makespan);
    let _ = writeln!(s, "  \"events\": {},", rep.events);
    let _ = writeln!(s, "  \"scheduled\": {},", rep.scheduled);
    let _ = writeln!(s, "  \"reallocations\": {},", rep.reallocations);
    let _ = writeln!(s, "  \"reroutes\": {},", rep.reroutes);
    let _ = writeln!(s, "  \"conversion_reroutes\": {},", rep.conversion_reroutes);
    let _ = writeln!(s, "  \"conversions\": {},", rep.conversions);
    let _ = writeln!(s, "  \"links_removed\": {},", rep.links_removed);
    let _ = writeln!(s, "  \"links_added\": {},", rep.links_added);
    let _ = writeln!(s, "  \"missing_links\": {},", rep.missing_links);
    let _ = writeln!(s, "  \"truncated\": {},", rep.truncated);
    let _ = writeln!(s, "  \"checksum\": {}", rep.completion_checksum());
    s.push_str("}\n");
    s
}

/// Most flows one `ftctl sim` scenario may replay (demands × rounds).
/// Each flow holds about 150 bytes across its two spec copies, its record
/// and its queued arrival, so the cap keeps a run near 600 MB. A scenario
/// past it, or whose product wraps, is refused before
/// `flows_with_arrivals` would try to allocate for it.
const MAX_SIM_FLOWS: usize = 1 << 22;

/// `ftctl sim` — runs a scenario file on the ft-des engine: seeded
/// workload arrivals, optionally one live zone conversion sourced from the
/// ft-control reconfiguration plan.
fn cmd_sim(inv: &Invocation) -> Result<String, CliError> {
    let _trace = TraceGuard::from_inv(inv)?;
    let path = inv
        .options
        .get("scenario")
        .ok_or_else(|| CliError("missing --scenario <file>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read scenario {path}: {e}")))?;
    let mut sc = parse_scenario(&text)?;
    if inv.options.contains_key("quick") {
        sc.rounds = sc.rounds.min(1);
    }

    let cfg = FlatTreeConfig::for_fat_tree_k(sc.k).map_err(|e| CliError(e.to_string()))?;
    let ft = FlatTree::new(cfg).map_err(|e| CliError(e.to_string()))?;
    let net = ft
        .materialize(&sc.from)
        .map_err(|e| CliError(e.to_string()))?;

    let mut topo: Vec<TopoEvent> = Vec::new();
    let mut conversion_desc = String::from("none");
    if let Some(target) = &sc.to {
        let plan = match target {
            ScenarioTarget::Mode(to) => {
                let from = ft.resolve(&sc.from).map_err(|e| CliError(e.to_string()))?;
                let to = ft.resolve(to).map_err(|e| CliError(e.to_string()))?;
                plan_transition(&ft, &from, &to).map_err(|e| CliError(e.to_string()))?
            }
            ScenarioTarget::Zones(zones) => {
                let from_zones = baseline_zones(&sc.from, ft.geometry().pods);
                plan_zone_transition(&ft, &from_zones, zones)
                    .map_err(|e| CliError(e.to_string()))?
            }
        };
        conversion_desc = format!(
            "at t={} (latency {}): -{} links, +{} links, {} converter ops",
            sc.convert_at,
            sc.latency,
            plan.links_removed.len(),
            plan.links_added.len(),
            plan.converter_ops()
        );
        topo.push(TopoEvent::Convert(ConversionEvent::from_plan(
            sc.convert_at,
            sc.latency,
            &plan,
            sc.new_policy,
        )));
    }

    let tm = generate(&net, &sc.workload, sc.seed);
    let demands = tm.demands.len();
    let wanted = demands.checked_mul(sc.rounds);
    if wanted.is_none_or(|n| n > MAX_SIM_FLOWS) {
        return Err(CliError(format!(
            "scenario key rounds: {demands} demands × {} rounds exceeds {MAX_SIM_FLOWS} flows",
            sc.rounds
        )));
    }
    let flows = flows_with_arrivals(&tm, sc.size, sc.rate, sc.rounds, sc.seed);
    let sim = DesSimulator::new(&net, sc.policy)
        .with_capacity(sc.capacity)
        .map_err(|e| CliError(e.to_string()))?;
    let events_path = inv.options.get("events");
    let rep = if events_path.is_some() {
        sim.run_traced(&flows, &topo, sc.horizon)
    } else {
        sim.run(&flows, &topo, sc.horizon)
    }
    .map_err(|e| CliError(format!("simulation failed: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(out, "ft-des simulation: {path}");
    let _ = writeln!(
        out,
        "  k={} policy={:?} from={:?} seed={}",
        sc.k, sc.policy, sc.from, sc.seed
    );
    let _ = writeln!(out, "  conversion: {conversion_desc}");
    let _ = writeln!(
        out,
        "  flows: {} ({} finished, {} unfinished)",
        flows.len(),
        flows.len() - rep.unfinished(),
        rep.unfinished()
    );
    let _ = writeln!(
        out,
        "  mean fct: {:.6}   makespan: {:.6}{}",
        rep.mean_fct(&flows),
        rep.makespan,
        if rep.truncated { " (truncated)" } else { "" }
    );
    let _ = writeln!(
        out,
        "  events: {}   reallocations: {}   reroutes: {} ({} from conversion)",
        rep.events, rep.reallocations, rep.reroutes, rep.conversion_reroutes
    );
    if rep.missing_links > 0 {
        let _ = writeln!(
            out,
            "  warning: {} planned link removals matched no live link",
            rep.missing_links
        );
    }
    if let Some(target) = inv.options.get("json") {
        let doc = sim_summary_json(&sc, &flows, &rep);
        if target == "-" {
            out.push_str(&doc);
        } else {
            std::fs::write(target, doc)
                .map_err(|e| CliError(format!("cannot write {target}: {e}")))?;
            let _ = writeln!(out, "  json written to {target}");
        }
    }
    if let Some(target) = events_path {
        let mut doc = rep.trace.as_deref().unwrap_or_default().join("\n");
        doc.push('\n');
        std::fs::write(target, doc).map_err(|e| CliError(format!("cannot write {target}: {e}")))?;
        let _ = writeln!(out, "  events written to {target}");
    }
    Ok(out)
}

/// `ftctl lint` — runs the ft-lint analyzer over the workspace and emits
/// machine-readable reports. A dirty result (violations or stale allow
/// entries) is a [`CliError`] so the process exits non-zero for CI.
fn cmd_lint(inv: &Invocation) -> Result<String, CliError> {
    let root = std::path::PathBuf::from(inv.options.get("root").map_or(".", String::as_str));
    let opts = ft_lint::Options {
        fix_allow: inv.options.contains_key("fix-allow"),
    };
    let report = ft_lint::run_with(&root, &opts)
        .map_err(|e| CliError(format!("lint configuration error: {e}")))?;
    let root_str = root.to_string_lossy().replace('\\', "/");
    let mut out = String::new();
    if let Some(target) = inv.options.get("json") {
        let doc = ft_lint::report::to_json(&report, &root_str);
        if target == "-" {
            out.push_str(&doc);
        } else {
            std::fs::write(target, doc)
                .map_err(|e| CliError(format!("cannot write {target}: {e}")))?;
            let _ = writeln!(out, "lint json written to {target}");
        }
    }
    if let Some(target) = inv.options.get("sarif") {
        let doc = ft_lint::report::to_sarif(&report);
        if target == "-" {
            out.push_str(&doc);
        } else {
            std::fs::write(target, doc)
                .map_err(|e| CliError(format!("cannot write {target}: {e}")))?;
            let _ = writeln!(out, "lint sarif written to {target}");
        }
    }
    out.push_str(&ft_lint::report::to_text(&report));
    if report.is_clean() {
        Ok(out)
    } else {
        // reports above are already written; the error text carries the
        // summary so CI logs show why the gate went red
        Err(CliError(out))
    }
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}

/// Reads and parses a span JSONL file into an analyzable trace.
fn load_trace(path: &str) -> Result<ft_obs::analyze::Trace, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read trace file {path}: {e}")))?;
    let trace = ft_obs::analyze::Trace::parse(&text);
    if trace.spans.is_empty() {
        return Err(CliError(format!(
            "{path}: no span events found ({} non-span line(s) skipped) — \
             was the file produced by --trace?",
            trace.skipped
        )));
    }
    Ok(trace)
}

fn render_aggregates(out: &mut String, forest: &ft_obs::analyze::Forest<'_>, top: usize) {
    let aggs = forest.aggregates();
    let shown = top.min(aggs.len());
    let _ = writeln!(
        out,
        "span aggregates (top {shown} of {} names, by total time):",
        aggs.len()
    );
    let _ = writeln!(
        out,
        "  {:<32} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "name", "count", "total_ms", "self_ms", "p50_ms", "p95_ms", "max_ms"
    );
    for a in aggs.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<32} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10}",
            a.name,
            a.count,
            fmt_ms(a.total_us),
            fmt_ms(a.self_us),
            fmt_ms(a.p50_us),
            fmt_ms(a.p95_us),
            fmt_ms(a.max_us)
        );
    }
}

fn render_critical_paths(out: &mut String, forest: &ft_obs::analyze::Forest<'_>) {
    for &root in &forest.top_roots() {
        let path = forest.critical_path(root);
        let Some(head) = path.first() else { continue };
        let root_us = head.dur_us.max(1);
        let _ = writeln!(
            out,
            "critical path (root {}, {} ms):",
            head.name,
            fmt_ms(head.dur_us)
        );
        for (depth, step) in path.iter().enumerate() {
            let pct = step.dur_us as f64 * 100.0 / root_us as f64;
            let _ = writeln!(
                out,
                "  {:>5.1}%  {:>10} ms  {}{}  [self {} ms]",
                pct,
                fmt_ms(step.dur_us),
                "  ".repeat(depth),
                step.name,
                fmt_ms(step.self_us)
            );
        }
        out.push('\n');
    }
}

fn render_timeline(out: &mut String, trace: &ft_obs::analyze::Trace) {
    let points = ft_obs::analyze::conversion_timeline(trace);
    if points.is_empty() {
        return;
    }
    let _ = writeln!(out, "conversion timeline ({} points):", points.len());
    let _ = writeln!(
        out,
        "  {:>10} {:>6} {:>6} {:>7} {:>7} {:>6} {:>9} {:>10} {:>11}",
        "t", "phase", "epoch", "active", "parked", "queue", "reroutes", "conv_rr", "drain"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "  {:>10.4} {:>6} {:>6} {:>7} {:>7} {:>6} {:>9} {:>10} {:>7}/{}",
            p.t,
            p.phase,
            p.epoch,
            p.active,
            p.parked,
            p.queue,
            p.reroutes,
            p.conversion_reroutes,
            p.links_removed,
            p.links_planned
        );
    }
    out.push('\n');
}

fn render_diff(
    out: &mut String,
    old_path: &str,
    new_path: &str,
    old: &ft_obs::analyze::Trace,
    new: &ft_obs::analyze::Trace,
    top: usize,
) {
    let rows = ft_obs::analyze::diff(old, new);
    let _ = writeln!(out, "trace diff: {old_path} -> {new_path}");
    let shown = top.min(rows.len());
    let _ = writeln!(
        out,
        "  top {shown} of {} span names by |total-time delta|:",
        rows.len()
    );
    let _ = writeln!(
        out,
        "  {:<32} {:>7} {:>7} {:>12} {:>12} {:>12}",
        "name", "n_old", "n_new", "old_ms", "new_ms", "delta_ms"
    );
    for r in rows.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<32} {:>7} {:>7} {:>12} {:>12} {:>+12.3}",
            r.name,
            r.old_count,
            r.new_count,
            fmt_ms(r.old_total_us),
            fmt_ms(r.new_total_us),
            r.delta_us as f64 / 1000.0
        );
    }
}

fn cmd_trace(inv: &Invocation) -> Result<String, CliError> {
    let file = inv.positional.first().ok_or_else(|| {
        CliError("trace needs a span file: ftctl trace <spans.jsonl>".to_string())
    })?;
    if let Some(extra) = inv.positional.get(1) {
        return Err(CliError(format!(
            "trace takes one span file; unexpected argument {extra:?}"
        )));
    }
    let top = get_usize_opt(inv, "top")?.unwrap_or(15).max(1);
    let trace = load_trace(file)?;
    let mut out = String::new();

    if let Some(old_path) = inv.options.get("diff") {
        let old = load_trace(old_path)?;
        render_diff(&mut out, old_path, file, &old, &trace, top);
        return Ok(out);
    }

    let forest = ft_obs::analyze::Forest::build(&trace);
    let _ = writeln!(out, "trace report: {file}");
    let _ = writeln!(
        out,
        "  spans: {}   threads: {}   skipped non-span lines: {}",
        trace.spans.len(),
        trace.thread_count(),
        trace.skipped
    );
    out.push('\n');
    render_aggregates(&mut out, &forest, top);
    out.push('\n');
    render_critical_paths(&mut out, &forest);
    render_timeline(&mut out, &trace);

    if let Some(path) = inv.options.get("chrome") {
        std::fs::write(path, ft_obs::analyze::to_chrome(&trace))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "chrome trace-event json written to {path}");
    }
    if let Some(path) = inv.options.get("folded") {
        std::fs::write(path, ft_obs::analyze::to_folded(&trace))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "folded stacks written to {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(args: &[&str]) -> Invocation {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_basic() {
        let i = inv(&["topo", "--kind", "fat-tree", "-k", "8"]);
        assert_eq!(i.command, "topo");
        assert_eq!(i.options["kind"], "fat-tree");
        assert_eq!(i.options["k"], "8");
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["topo".into(), "oops".into()]).is_err());
        assert!(parse(&["topo".into(), "--k".into()]).is_err());
    }

    #[test]
    fn help_paths() {
        assert_eq!(inv(&["--help"]).command, "help");
        assert!(run(&inv(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn topo_all_kinds() {
        for kind in ["fat-tree", "random-graph", "two-stage", "flat-tree"] {
            let out = run(&inv(&["topo", "--kind", kind, "-k", "4"])).unwrap();
            assert!(out.contains("switches: 20"), "{kind}: {out}");
            assert!(out.contains("servers: 16"), "{kind}: {out}");
        }
    }

    #[test]
    fn topo_flat_tree_modes() {
        for mode in ["clos", "local-rg", "global-rg"] {
            let out = run(&inv(&[
                "topo",
                "--kind",
                "flat-tree",
                "-k",
                "8",
                "--mode",
                mode,
            ]))
            .unwrap();
            assert!(out.contains(mode), "{out}");
        }
    }

    #[test]
    fn metrics_report_fields() {
        let out = run(&inv(&["metrics", "--kind", "fat-tree", "-k", "4"])).unwrap();
        assert!(out.contains("average path length"));
        assert!(out.contains("fabric bridges:                0"));
    }

    #[test]
    fn convert_reports_plan() {
        let out = run(&inv(&[
            "convert",
            "-k",
            "8",
            "--from",
            "clos",
            "--to",
            "global-rg",
        ]))
        .unwrap();
        assert!(out.contains("converter reprogramming ops: 96"), "{out}");
        assert!(out.contains("removed"));
    }

    #[test]
    fn convert_noop() {
        let out = run(&inv(&[
            "convert", "-k", "8", "--from", "clos", "--to", "clos",
        ]))
        .unwrap();
        assert!(out.contains("ops: 0"), "{out}");
    }

    #[test]
    fn profile_marks_best() {
        let out = run(&inv(&["profile", "-k", "8"])).unwrap();
        assert!(out.contains("← best"));
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(run(&inv(&["topo", "--kind", "nope", "-k", "8"])).is_err());
        assert!(run(&inv(&["topo", "--kind", "fat-tree", "-k", "7"])).is_err());
        assert!(run(&inv(&["topo", "--kind", "fat-tree"])).is_err());
        assert!(run(&inv(&[
            "convert", "-k", "8", "--from", "clos", "--to", "weird"
        ]))
        .is_err());
        assert!(run(&inv(&["frobnicate"])).is_err());
    }

    #[test]
    fn query_runs_ftq_lines_in_process() {
        let out = run(&inv(&[
            "query",
            "-k",
            "4",
            "--req",
            "topo; paths; paths; stats",
        ]))
        .unwrap();
        assert!(out.contains("OK topo "), "{out}");
        assert!(out.contains("source=hit"), "{out}");
        assert!(out.contains("OK stats "), "{out}");
        assert_eq!(out.lines().count(), 4, "{out}");
    }

    #[test]
    fn query_surfaces_protocol_errors_as_reply_lines() {
        let out = run(&inv(&["query", "-k", "4", "--req", "frobnicate"])).unwrap();
        assert!(out.starts_with("ERR unknown-verb "), "{out}");
    }

    #[test]
    fn query_and_serve_flag_validation() {
        assert!(run(&inv(&["query", "-k", "4", "--req", " ; "])).is_err());
        assert!(run(&inv(&["query", "-k", "4", "--workers", "zero"])).is_err());
        assert!(run(&inv(&["serve", "-k", "4", "--port", "70000"])).is_err());
        // worker count 0 is rejected by the service itself
        assert!(run(&inv(&["query", "-k", "4", "--workers", "0"])).is_err());
    }

    #[test]
    fn serve_config_applies_overrides() {
        let cfg = serve_config(&inv(&[
            "serve",
            "-k",
            "6",
            "--workers",
            "2",
            "--cache",
            "3",
            "--queue",
            "9",
        ]))
        .unwrap();
        assert_eq!(cfg.k, 6);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.cache_capacity, 3);
        assert_eq!(cfg.queue_depth, 9);
    }

    #[test]
    fn parse_valueless_quick_flag() {
        let i = inv(&["bench", "--quick", "--json", "out.json"]);
        assert_eq!(i.options["quick"], "true");
        assert_eq!(i.options["json"], "out.json");
        // --quick at the end must not swallow a missing value
        let i = inv(&["bench", "--json", "out.json", "--quick"]);
        assert_eq!(i.options["quick"], "true");
    }

    #[test]
    fn query_trace_writes_jsonl_spans() {
        let trace = std::env::temp_dir().join("ftctl_query_trace_test.jsonl");
        let out = run(&inv(&[
            "query",
            "-k",
            "4",
            "--req",
            "paths; metrics",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("OK paths "), "{out}");
        assert!(out.contains("OK metrics lines="), "{out}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(!body.trim().is_empty(), "trace file is empty");
        for line in body.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line:?}"
            );
        }
        assert!(body.contains("\"name\":\"serve.request\""), "{body}");
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn dot_and_json_export() {
        let dir = std::env::temp_dir();
        let dot = dir.join("ftctl_test.dot");
        let json = dir.join("ftctl_test.json");
        let out = run(&inv(&[
            "topo",
            "--kind",
            "fat-tree",
            "-k",
            "4",
            "--dot",
            dot.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("dot written"));
        assert!(std::fs::read_to_string(&dot).unwrap().starts_with("graph"));
        assert!(std::fs::read_to_string(&json)
            .unwrap()
            .contains("\"nodes\""));
        let _ = std::fs::remove_file(dot);
        let _ = std::fs::remove_file(json);
    }

    #[test]
    fn sim_runs_checked_in_conversion_scenario() {
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/clos_to_global.scn");
        let out = run(&inv(&["sim", "--scenario", scn, "--quick", "--json", "-"])).unwrap();
        assert!(out.contains("\"schema\": \"ft-des-sim/1\""), "{out}");
        assert!(out.contains("\"conversions\": 1"), "{out}");
        assert!(out.contains("\"missing_links\": 0"), "{out}");
        assert!(out.contains("\"unfinished\": 0"), "{out}");
        assert!(
            !out.contains("\"conversion_reroutes\": 0,"),
            "conversion must re-route flows: {out}"
        );
    }

    #[test]
    fn sim_repeat_runs_are_byte_identical() {
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/clos_to_global.scn");
        let args = ["sim", "--scenario", scn, "--quick", "--json", "-"];
        assert_eq!(run(&inv(&args)).unwrap(), run(&inv(&args)).unwrap());
    }

    #[test]
    fn sim_scenario_parser_rejects_garbage() {
        assert!(parse_scenario("k = 4\nnot a kv line\n").is_err());
        assert!(parse_scenario("frobnicate = 7\n").is_err());
        assert!(parse_scenario("to-zones = all:0..4\n").is_err()); // missing mode
        assert!(parse_scenario("policy = ksp:0\n").is_err());
        // at most 64 paths per pair, for either policy key
        assert!(parse_scenario("policy = ksp:65\n").is_err());
        assert!(parse_scenario("new-policy = ksp:1000000000\n").is_err());
        let sc = parse_scenario("policy = ksp:64\nnew-policy = ksp:1\n").unwrap();
        assert_eq!(sc.policy, RouterPolicy::Ksp(64));
        assert_eq!(sc.new_policy, Some(RouterPolicy::Ksp(1)));
        // comments and blank lines are fine
        let sc = parse_scenario("# hello\n\nk = 8 # trailing\npolicy = ksp:4\n").unwrap();
        assert_eq!(sc.k, 8);
        assert_eq!(sc.policy, RouterPolicy::Ksp(4));
    }

    #[test]
    fn sim_scenario_parser_rejects_values_the_simulator_asserts_on() {
        for text in [
            "capacity = 0\n",
            "capacity = -2\n",
            "capacity = inf\n",
            "capacity = NaN\n",
            "latency = -1\n",
            "latency = inf\n",
            "latency = NaN\n",
            "size = 0\n",
            "rate = -1\n",
            "rate = inf\n",
            "cluster-size = 0\n",
        ] {
            let err = parse_scenario(text).err().map(|e| e.to_string());
            assert!(
                err.as_deref()
                    .is_some_and(|e| e.starts_with("scenario key")),
                "{text:?} accepted or mislabelled: {err:?}"
            );
        }
        let sc = parse_scenario("capacity = 0.25\nlatency = 0\n").unwrap();
        assert_eq!((sc.capacity, sc.latency), (0.25, 0.0));
    }

    /// Keys `parse_scenario` knows, for the line soups below.
    const SOUP_KEYS: &[&str] = &[
        "k",
        "policy",
        "new-policy",
        "from",
        "to",
        "to-zones",
        "convert-at",
        "latency",
        "seed",
        "size",
        "rate",
        "rounds",
        "capacity",
        "horizon",
        "cluster-size",
        "workload",
        "locality",
    ];
    /// Edge values first, then a few well-formed ones so some soups parse.
    const SOUP_VALUES: &[&str] = &[
        "0",
        "-1",
        "inf",
        "NaN",
        "1e309",
        "18446744073709551616",
        "ksp:0",
        "ksp:",
        "ksp:65",
        "5..2",
        "",
        "z:5..2:clos",
        "1",
        "2.5",
        "ecmp",
        "ksp:3",
        "global-rg",
        "all:0..4:global-rg",
        "hotspot",
        "strong",
    ];
    const SOUP_NOISE: &[&str] = &["", "=", "#", "==", "  ", "# k = 0"];

    /// One soup line: `key = value`, the same with a trailing comment, a
    /// bare noise line, or key, noise and value run together.
    fn soup_line(shape: u8, key: &str, value: &str, noise: &str) -> String {
        match shape {
            0 => format!("{key} = {value}\n"),
            1 => format!("{key}={value} # {noise}\n"),
            2 => format!("{noise}\n"),
            _ => format!("{key}{noise}{value}\n"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]
        /// No line soup panics the scenario parser, and every soup it
        /// accepts passes the range checks it promises.
        #[test]
        fn parse_scenario_fuzz(
            lines in proptest::collection::vec(
                (0u8..4, 0..SOUP_KEYS.len(), 0..SOUP_VALUES.len(), 0..SOUP_NOISE.len()),
                0..6,
            )
        ) {
            let text: String = lines
                .iter()
                .map(|&(shape, k, v, n)| {
                    soup_line(shape, SOUP_KEYS[k], SOUP_VALUES[v], SOUP_NOISE[n])
                })
                .collect();
            if let Ok(sc) = parse_scenario(&text) {
                for v in [sc.capacity, sc.size, sc.rate] {
                    proptest::prop_assert!(v.is_finite() && v > 0.0, "{text:?}: {v}");
                }
                proptest::prop_assert!(
                    sc.latency.is_finite() && sc.latency >= 0.0,
                    "{text:?}: latency {}",
                    sc.latency
                );
                proptest::prop_assert!(sc.workload.cluster_size >= 1, "{text:?}");
                for policy in std::iter::once(sc.policy).chain(sc.new_policy) {
                    if let RouterPolicy::Ksp(n) = policy {
                        proptest::prop_assert!((1..=MAX_KSP_PATHS).contains(&n), "{text:?}");
                    }
                }
            }
        }
    }

    /// FTQ/1 soup pieces, edge values first: version prefixes, verbs,
    /// argument keys and values, and the whitespace between tokens.
    const FTQ_HEADS: &[&str] = &["", "ftq/1 ", "FTQ/1 ", "ftq/2 ", "ftq/ ", "ftq/1"];
    const FTQ_VERBS: &str = "topo paths throughput plan convert stats metrics shutdown THROUGHPUT";
    const FTQ_KEYS: &str = "mode to eps pattern cluster locality seed solver deadline_ms";
    const FTQ_VALUES: &str = "0 0.5 NaN inf -1 1e309 18446744073709551615 18446744073709551616 \
        hybrid: hybrid:cgl hybrid:cxg hybrid:éc hybrid:ccccccccc = 0.1 2 clos global-rg hotspot \
        strong aggregated";
    const FTQ_SPACES: &[&str] = &[" ", "  ", "\t", "\u{a0}", "\r", ""];

    /// Word `i` (wrapping) of a space-separated soup list.
    fn pick(list: &str, i: usize) -> &str {
        let words: Vec<&str> = list.split_whitespace().collect();
        words[i % words.len()]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]
        /// No FTQ/1 line soup panics `proto::parse` (and through it
        /// `ModeSpec::parse`), and every request it accepts holds the
        /// ranges it promises.
        #[test]
        fn parse_ftq_fuzz(
            head in (0..FTQ_HEADS.len(), 0usize..16),
            tokens in proptest::collection::vec(
                (0u8..6, 0usize..16, 0usize..32, 0..FTQ_SPACES.len()),
                0..6,
            )
        ) {
            use crate::serve::{ModeSpec, Request};
            let mut line = format!("{}{}", FTQ_HEADS[head.0], pick(FTQ_VERBS, head.1));
            for &(shape, k, v, sp) in &tokens {
                let (key, value) = (pick(FTQ_KEYS, k), pick(FTQ_VALUES, v));
                line.push_str(FTQ_SPACES[sp]);
                line.push_str(&match shape {
                    0 => format!("{key}={value}"),
                    1 => key.to_string(),
                    2 => value.to_string(),
                    3 => format!("{key}=={value}"),
                    4 => format!("{key}="),
                    _ => format!("={value}"),
                });
                if let Ok(ModeSpec::Hybrid(pods)) = ModeSpec::parse(value) {
                    proptest::prop_assert!(!pods.is_empty(), "{value:?}");
                }
            }
            let spec = match crate::serve::parse(&line) {
                Ok(Request::Throughput { epsilon, cluster, mode, .. }) => {
                    proptest::prop_assert!(epsilon > 0.0 && epsilon < 0.5, "{line:?}: {epsilon}");
                    proptest::prop_assert!(cluster >= 2, "{line:?}: cluster {cluster}");
                    mode
                }
                Ok(Request::Topo { mode } | Request::Paths { mode }) => mode,
                Ok(Request::Plan { to } | Request::Convert { to }) => Some(to),
                Ok(_) | Err(_) => None,
            };
            if let Some(ModeSpec::Hybrid(pods)) = spec {
                proptest::prop_assert!(!pods.is_empty(), "{line:?}");
            }
        }

        /// No zone-list soup panics `parse_zones`, and an accepted list has
        /// one zone per comma-separated part, which zone validation then
        /// accepts or refuses without panicking.
        #[test]
        fn parse_zones_fuzz(
            parts in proptest::collection::vec(
                (0u8..4, 0..SOUP_VALUES.len(), 0..SOUP_VALUES.len(), 0..FTQ_SPACES.len()),
                1..5,
            )
        ) {
            let spec = parts
                .iter()
                .map(|&(shape, lo, hi, sp)| {
                    let name = pick("a zone_b é a:b", lo);
                    let mode = pick("clos global-rg local-rg x clos:extra", hi);
                    let (lo, hi, space) = (SOUP_VALUES[lo], SOUP_VALUES[hi], FTQ_SPACES[sp]);
                    match shape {
                        0 => format!("{space}{name}:{lo}..{hi}:{mode}{space}"),
                        1 => format!("{name}:{lo}..{hi}"),
                        2 => format!(":{lo}{space}..{hi}:{mode}"),
                        _ => format!("{name}:{lo}:{hi}:{mode}"),
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            if let Ok(zones) = parse_zones(&spec) {
                proptest::prop_assert_eq!(zones.len(), spec.split(',').count(), "{:?}", spec);
                let _ = crate::control::zones_to_mode(&zones, 8);
            }
        }
    }

    #[test]
    fn sim_events_trace_is_jsonl() {
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/clos_to_global.scn");
        let trace = std::env::temp_dir().join("ftctl_sim_events_test.jsonl");
        let out = run(&inv(&[
            "sim",
            "--scenario",
            scn,
            "--quick",
            "--events",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("events written to"), "{out}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(!body.trim().is_empty());
        for line in body.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line:?}"
            );
        }
        assert!(body.contains("\"kind\":\"conversion_start\""), "{body}");
        assert!(body.contains("\"kind\":\"conversion_finish\""), "{body}");
        assert!(body.contains("\"kind\":\"arrival\""), "{body}");
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn parse_positionals_only_for_trace() {
        let i = inv(&["trace", "spans.jsonl", "--top", "5"]);
        assert_eq!(i.positional, vec!["spans.jsonl".to_string()]);
        assert_eq!(i.options["top"], "5");
        // other commands still reject bare tokens (see parse_errors)
        assert!(parse(&["bench".into(), "spans.jsonl".into()]).is_err());
    }

    fn write_trace_fixture(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let lines = [
            r#"{"type":"span","name":"bench.run","id":1,"parent":0,"thread":0,"start_us":0,"dur_us":10000,"fields":{}}"#,
            r#"{"type":"span","name":"fptas.run","id":2,"parent":1,"thread":0,"start_us":100,"dur_us":8000,"fields":{"k":8}}"#,
            r#"{"type":"span","name":"fptas.phase","id":3,"parent":2,"thread":0,"start_us":200,"dur_us":6000,"fields":{}}"#,
            r#"{"type":"span","name":"fptas.phase","id":4,"parent":2,"thread":0,"start_us":6300,"dur_us":1500,"fields":{}}"#,
            r#"{"type":"span","name":"des.timeline","id":5,"parent":1,"thread":0,"start_us":9000,"dur_us":1,"fields":{"epoch":3,"t":0.5,"phase":"drain","active":4,"parked":1,"queue":2,"scheduled":9,"reroutes":6,"conversion_reroutes":5,"links_removed":8,"links_planned":16}}"#,
            r#"{"kind":"arrival","t":0.1}"#,
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    #[test]
    fn trace_reports_aggregates_critical_path_and_timeline() {
        let path = write_trace_fixture("ftctl_trace_report_test.jsonl");
        let out = run(&inv(&["trace", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("spans: 5"), "{out}");
        assert!(out.contains("skipped non-span lines: 1"), "{out}");
        assert!(out.contains("span aggregates"), "{out}");
        // fptas.phase: two instances totalling 7.5 ms
        assert!(out.contains("fptas.phase"), "{out}");
        assert!(out.contains("7.500"), "{out}");
        assert!(
            out.contains("critical path (root bench.run, 10.000 ms):"),
            "{out}"
        );
        // the path descends into the longer fptas.phase instance
        assert!(out.contains("6.000 ms"), "{out}");
        assert!(out.contains("conversion timeline (1 points):"), "{out}");
        assert!(out.contains("drain"), "{out}");
        assert!(out.contains("8/16"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_diff_and_exports() {
        let path = write_trace_fixture("ftctl_trace_diff_test.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&inv(&["trace", p, "--diff", p])).unwrap();
        assert!(out.contains("trace diff:"), "{out}");
        assert!(out.contains("+0.000"), "self-diff must be all-zero: {out}");

        let chrome = std::env::temp_dir().join("ftctl_trace_chrome_test.json");
        let folded = std::env::temp_dir().join("ftctl_trace_folded_test.folded");
        let out = run(&inv(&[
            "trace",
            p,
            "--chrome",
            chrome.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("chrome trace-event json written"), "{out}");
        let body = std::fs::read_to_string(&chrome).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        let stacks = std::fs::read_to_string(&folded).unwrap();
        // root;child;grandchild weighted by self time
        assert!(
            stacks.contains("bench.run;fptas.run;fptas.phase 7500"),
            "{stacks}"
        );
        for f in [path, chrome, folded] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn trace_bad_inputs_are_cli_errors() {
        assert!(run(&inv(&["trace"])).is_err());
        assert!(run(&inv(&["trace", "/nonexistent/ftctl-spans.jsonl"])).is_err());
        let empty = std::env::temp_dir().join("ftctl_trace_empty_test.jsonl");
        std::fs::write(&empty, "{\"kind\":\"arrival\"}\n").unwrap();
        let err = run(&inv(&["trace", empty.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("no span events"), "{err}");
        let _ = std::fs::remove_file(empty);
    }

    #[test]
    fn lint_parses_fix_allow_as_bool_flag() {
        // --fix-allow takes no value; it must not swallow the next flag
        let i = inv(&["lint", "--fix-allow", "--json", "-"]);
        assert_eq!(i.command, "lint");
        assert!(i.options.contains_key("fix-allow"));
        assert_eq!(i.options["json"], "-");
    }

    #[test]
    fn lint_bad_root_is_cli_error() {
        let err = run(&inv(&[
            "lint",
            "--root",
            "/nonexistent/ftctl-lint-test-root",
        ]))
        .unwrap_err();
        assert!(err.0.contains("lint configuration error"), "{err}");
    }

    #[test]
    fn lint_clean_fixture_tree_emits_json() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/ft-lint/fixtures/clean");
        let out = run(&inv(&["lint", "--root", root, "--json", "-"])).unwrap();
        assert!(out.contains("\"schema\": \"ft-lint/2\""), "{out}");
        assert!(out.contains("\"clean\": true"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
    }
}
