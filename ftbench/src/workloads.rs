//! The five workloads and the harness that times, gates and traces them.
//!
//! Every workload builds its inputs from the seed, runs one warm-up
//! operation, and repeats both [`SETUPS`] times; the median of those
//! set-ups is `setup_s`. It then times its operation for the requested
//! number of seconds. A traced run follows with one more operation under an
//! in-memory span sink, which the [`Fold`] turns into per-layer shares.
//!
//! Workloads reach the workspace only through public functions —
//! `FlatTree::materialize`, `ft_workload::generate[_on]`,
//! `plan_zone_transition`, `throughput`/`throughput_all_to_all`,
//! `DesSimulator::run`, `Service::run`/`Handle::request` — plus the layer
//! probes of the traced rep (`SymmetryClasses::compute`,
//! `AggregatedInstance::all_to_all`, an empty `DesSimulator::run`). Each
//! call sits in a `bench.*` span opened here.

use crate::layers::{Counters, Fold, Layers};
use crate::reference::{Gate, Reference};
use crate::{peak_rss_mb, quantile, Summary};
use ft_control::{plan_zone_transition, Zone};
use ft_core::{FlatTree, FlatTreeConfig, Mode, PodMode};
use ft_mcf::{AggregatedInstance, CapGraph};
use ft_metrics::path_length::SwitchDistances;
use ft_metrics::throughput::{throughput, throughput_all_to_all, SolverKind, ThroughputOptions};
use ft_serve::{Handle, ServeConfig, Service, Snapshot};
use ft_sim::{
    flows_with_arrivals, ConversionEvent, DesReport, DesSimulator, FlowSpec, RouterPolicy,
    TopoEvent,
};
use ft_topo::{Network, SymmetryClasses};
use ft_workload::{generate, generate_on, Locality, TrafficMatrix, TrafficPattern, WorkloadSpec};
use std::time::{Duration, Instant};

/// What a workload exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 7 point set through `throughput` (batched FPTAS).
    SolveFig7,
    /// Symbolic all-to-all on the Clos through the aggregated FPTAS.
    SolveA2a,
    /// ECMP event storm through `DesSimulator::run`.
    SimStorm,
    /// Live Clos → global-RG conversion through `DesSimulator::run`.
    SimConvert,
    /// Closed-loop FTQ/1 request mix against `Service::run`.
    ServeMix,
}

/// A workload and its size.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Fat-tree parameter of the network.
    pub k: usize,
    /// Servers that carry traffic (simulations only).
    pub servers: usize,
    /// Arrival rounds per demand (simulations only).
    pub rounds: usize,
}

/// The benchmark's workloads at their measured sizes (README.md gives the
/// reasons and the measured splits).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solve_fig7_k12",
        kind: Kind::SolveFig7,
        k: 12,
        servers: 0,
        rounds: 0,
    },
    Workload {
        name: "solve_a2a_k32",
        kind: Kind::SolveA2a,
        k: 32,
        servers: 0,
        rounds: 0,
    },
    Workload {
        name: "sim_storm_k32",
        kind: Kind::SimStorm,
        k: 32,
        servers: 32,
        rounds: 6,
    },
    Workload {
        name: "sim_convert_k8",
        kind: Kind::SimConvert,
        k: 8,
        servers: 48,
        rounds: 2,
    },
    Workload {
        name: "serve_mix_k8",
        kind: Kind::ServeMix,
        k: 8,
        servers: 0,
        rounds: 0,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on a small fabric, for tests.
    pub fn tiny(self) -> Workload {
        let (k, servers, rounds) = match self.kind {
            Kind::SolveFig7 | Kind::ServeMix => (4, 0, 0),
            Kind::SolveA2a => (8, 0, 0),
            Kind::SimStorm => (8, 16, 2),
            Kind::SimConvert => (4, 16, 2),
        };
        Workload {
            k,
            servers,
            rounds,
            ..self
        }
    }
}

/// FPTAS ε of every solve (the paper's Fig. 7 setting).
const EPSILON: f64 = 0.15;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed operations per run even when one outlasts the time budget.
const MIN_REPS: usize = 3;
/// Distinct hot-spot placements the Fig. 7 reps rotate through.
const FIG7_INSTANCES: usize = 24;
/// Fig. 7's own FPTAS step cap.
const FIG7_MAX_STEPS: usize = 2_000_000;
/// Step cap of the all-to-all solve.
const A2A_MAX_STEPS: usize = 3_000;
/// Which servers talk to which in the simulations. Fixed, so that the seed
/// redraws arrival times without changing which flows contend: placement
/// alone moves the conversion run time by ±15 % between seeds.
const PLACEMENT_SEED: u64 = 1;
/// Servers per all-to-all cluster in the simulations.
const SIM_CLUSTER: usize = 8;
/// Poisson arrival rate per demand.
const ARRIVAL_RATE: f64 = 0.5;
/// Conversion start, drain-to-finish latency, and KSP width after it.
const CONVERT_AT: f64 = 10.0;
const CONVERT_LATENCY: f64 = 0.5;
const KSP_PATHS: usize = 8;
/// Service worker pool and closed-loop client threads.
const SERVE_WORKERS: usize = 2;
const SERVE_CLIENTS: usize = 2;
/// Length of the traced serve session.
const SERVE_TRACE_SECONDS: f64 = 3.0;
/// Placement seeds per mode the serve throughput requests cycle through.
const SERVE_SEEDS: u64 = 20;

/// One run's measurements, gate results and (traced) span lines.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Whether `metrics` are the per-layer ones.
    pub traced: bool,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Workload-specific figures printed alongside.
    pub details: Vec<(&'static str, Summary)>,
    /// Operations checked by the gates.
    pub attempted: u64,
    /// Operations that failed a gate.
    pub failed: u64,
    /// The first gate messages.
    pub failures: Vec<String>,
    /// Span JSONL of the traced section (empty when untraced).
    pub spans: Vec<String>,
}

/// What a workload measured, before it becomes metrics.
struct Measured {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    ops_per_s: f64,
    details: Vec<(&'static str, Summary)>,
    traced: Option<(Layers, Vec<String>)>,
}

/// Runs workload `w` on the inputs of `seed`, timing operations for
/// `seconds`; with `trace`, adds the traced rep and reports per-layer
/// metrics instead of end-to-end ones. Gates compare against `reference`
/// when given.
///
/// # Errors
/// Set-up failures (a network that cannot be built, a service that will
/// not start). Failures of individual operations are counted, not errors.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<&Reference>,
) -> Result<RunResult, String> {
    let mut gate = Gate::new(reference);
    let m = match w.kind {
        Kind::SolveFig7 => run_reps(&Fig7(*w), seed, seconds, trace, &mut gate)?,
        Kind::SolveA2a => run_reps(&A2a(*w), seed, seconds, trace, &mut gate)?,
        Kind::SimStorm | Kind::SimConvert => run_reps(&Sim(*w), seed, seconds, trace, &mut gate)?,
        Kind::ServeMix => run_serve(w, seed, seconds, trace, &mut gate)?,
    };
    let summary = |v: &[f64], what: &str| {
        Summary::of(v).ok_or_else(|| format!("{}: no {what} measured", w.name))
    };
    let (metrics, spans) = match m.traced {
        Some((layers, spans)) => {
            if layers.dropped_lines > 0.0 {
                gate.check(Err(format!(
                    "{} span lines were dropped",
                    layers.dropped_lines
                )));
            }
            let metrics = layers
                .entries()
                .into_iter()
                .map(|(name, v)| (name, Summary::single(v)))
                .collect();
            (metrics, spans)
        }
        None => {
            let metrics = vec![
                ("op_ms", summary(&m.op_ms, "operation")?),
                ("ops_per_s", Summary::single(m.ops_per_s)),
                ("peak_rss_mb", Summary::single(peak_rss_mb()?)),
                ("setup_s", summary(&m.setup_s, "set-up")?),
            ];
            (metrics, Vec::new())
        }
    };
    Ok(RunResult {
        workload: w.name,
        seed,
        traced: trace,
        metrics,
        details: m.details,
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
        spans,
    })
}

/// Recomputes every deterministic output of `w` for `seed` — each distinct
/// input once, untimed — which is what `reference/seed<N>.json` records.
///
/// # Errors
/// Set-up failures, or an output that fails its own gates.
pub fn reference_outputs(w: &Workload, seed: u64) -> Result<Reference, String> {
    fn all<W: Reps>(w: &W, seed: u64, gate: &mut Gate) -> Result<(), String> {
        let inputs = w.build(seed)?;
        for i in 0..W::DISTINCT {
            w.op(&inputs, i, gate);
        }
        Ok(())
    }
    let mut gate = Gate::new(None);
    match w.kind {
        Kind::SolveFig7 => all(&Fig7(*w), seed, &mut gate)?,
        Kind::SolveA2a => all(&A2a(*w), seed, &mut gate)?,
        Kind::SimStorm | Kind::SimConvert => all(&Sim(*w), seed, &mut gate)?,
        Kind::ServeMix => {
            let modes = serve_modes(flat_tree(w.k)?.geometry().pods);
            let mut answers = Vec::new();
            Service::run(serve_config(w), |h| {
                for mode in &modes {
                    for s in seed..seed + SERVE_SEEDS {
                        answers.push(Answer {
                            verb: Verb::Throughput,
                            key: format!("{mode}/{s}"),
                            ms: 0.0,
                            reply: h.request(&throughput_line(mode, s)),
                        });
                    }
                }
            })
            .map_err(|e| format!("{}: service: {e}", w.name))?;
            gate_answers(w.name, &answers, &mut gate);
        }
    }
    match gate.failures.first() {
        Some(f) => Err(f.clone()),
        None => Ok(gate.observed),
    }
}

/// A workload whose operation is one call on prebuilt inputs.
trait Reps {
    /// Operations with distinct inputs; operation `i` reuses the inputs of
    /// `i % DISTINCT`.
    const DISTINCT: usize = 1;
    type Inputs;
    type Output;
    /// Builds the inputs from the seed (materialize, generate, plan).
    fn build(&self, seed: u64) -> Result<Self::Inputs, String>;
    /// Runs and gates operation number `i`.
    fn op(&self, inputs: &Self::Inputs, i: usize, gate: &mut Gate) -> Self::Output;
    /// Layer probes, run after the traced operation.
    fn probe(&self, _inputs: &Self::Inputs) {}
    /// Fills the layers particular to this workload.
    fn layers(&self, _out: &Self::Output, _fold: &Fold, _layers: &mut Layers) {}
}

fn run_reps<W: Reps>(
    w: &W,
    seed: u64,
    seconds: f64,
    trace: bool,
    gate: &mut Gate,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let built = w.build(seed)?;
        w.op(&built, 0, gate);
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let (op_ms, elapsed) = timed_loop(seconds, |i| {
        std::hint::black_box(w.op(&inputs, i, gate));
    });
    let traced = if trace {
        // the traced operation is number 0: compare with its own input
        let same_input: Vec<f64> = op_ms.iter().copied().step_by(W::DISTINCT).collect();
        let untraced = Summary::of(&same_input).map_or(0.0, |s| s.median);
        let (result, spans, dropped) = traced(|| {
            let fresh = w.build(seed)?;
            let before = Counters::read();
            let out = {
                let _rep = ft_obs::span!("bench.rep");
                w.op(&fresh, 0, gate)
            };
            let counters = Counters::read().since(before);
            w.probe(&fresh);
            Ok::<_, String>((out, counters))
        });
        let (out, counters) = result?;
        let fold = Fold::new(&spans, "bench.rep");
        let mut layers = Layers::common(&fold, counters, untraced);
        layers.dropped_lines = dropped as f64;
        w.layers(&out, &fold, &mut layers);
        Some((layers, spans))
    } else {
        None
    };
    Ok(Measured {
        setup_s,
        ops_per_s: op_ms.len() as f64 / elapsed,
        op_ms,
        details: Vec::new(),
        traced,
    })
}

/// Calls `op(i)` for i = 0, 1, … until starting another call would run
/// past `seconds` (at least [`MIN_REPS`] calls). Returns each call's wall
/// time in ms and the seconds spent.
fn timed_loop(seconds: f64, mut op: impl FnMut(usize)) -> (Vec<f64>, f64) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        op(samples.len());
        let dt = t0.elapsed();
        samples.push(dt.as_secs_f64() * 1e3);
        if samples.len() >= MIN_REPS && start.elapsed() + dt > budget {
            return (samples, start.elapsed().as_secs_f64());
        }
    }
}

/// Runs `f` with spans recorded into memory. Returns its result, the span
/// lines, and how many lines the sink lost.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<String>, u64) {
    let dropped = || ft_obs::registry::counter(ft_obs::span::DROPPED_LINES_COUNTER).get();
    let store = ft_obs::install_memory_sink();
    let before = dropped();
    ft_obs::set_enabled(true);
    let out = f();
    ft_obs::set_enabled(false);
    ft_obs::take_sink();
    let lines = std::mem::take(&mut *store.lock().unwrap_or_else(|p| p.into_inner()));
    (out, lines, dropped() - before)
}

fn flat_tree(k: usize) -> Result<FlatTree, String> {
    FlatTreeConfig::for_fat_tree_k(k)
        .and_then(FlatTree::new)
        .map_err(|e| format!("flat-tree k={k}: {e}"))
}

fn materialize(ft: &FlatTree, mode: &Mode) -> Result<Network, String> {
    let _s = ft_obs::span!("bench.materialize");
    ft.materialize(mode)
        .map_err(|e| format!("materialize {}: {e}", mode.label()))
}

fn fptas(max_steps: usize, solver: SolverKind) -> ThroughputOptions {
    ThroughputOptions {
        epsilon: EPSILON,
        exact_threshold: 0,
        max_steps: Some(max_steps),
        solver,
        threads: 0,
    }
}

/// Fig. 7 at k: flat-tree in {clos, local-rg, global-rg} × locality {none,
/// strong}, one hot spot per 1000-server cluster. One operation solves all
/// six points of one placement; operations rotate through
/// [`FIG7_INSTANCES`] placements drawn from the seed.
struct Fig7(Workload);

const FIG7_MODES: [Mode; 3] = [Mode::Clos, Mode::LocalRandom, Mode::GlobalRandom];
const FIG7_LOCALITIES: [(Locality, &str); 2] =
    [(Locality::None, "none"), (Locality::Strong, "strong")];

struct Fig7Inputs {
    nets: Vec<Network>,
    /// `[instance][mode][locality]`.
    matrices: Vec<Vec<[TrafficMatrix; 2]>>,
}

impl Reps for Fig7 {
    const DISTINCT: usize = FIG7_INSTANCES;
    type Inputs = Fig7Inputs;
    type Output = ();

    fn build(&self, seed: u64) -> Result<Fig7Inputs, String> {
        let ft = flat_tree(self.0.k)?;
        let nets = FIG7_MODES
            .iter()
            .map(|m| materialize(&ft, m))
            .collect::<Result<Vec<_>, _>>()?;
        let _s = ft_obs::span!("bench.workload");
        let matrices = (0..FIG7_INSTANCES)
            .map(|i| {
                let placement = seed.wrapping_mul(1000).wrapping_add(i as u64);
                nets.iter()
                    .map(|net| {
                        FIG7_LOCALITIES.map(|(locality, _)| {
                            let spec = WorkloadSpec {
                                pattern: TrafficPattern::HotSpot,
                                cluster_size: 1000,
                                locality,
                            };
                            generate(net, &spec, placement)
                        })
                    })
                    .collect()
            })
            .collect();
        Ok(Fig7Inputs { nets, matrices })
    }

    fn op(&self, inputs: &Fig7Inputs, i: usize, gate: &mut Gate) {
        let instance = i % FIG7_INSTANCES;
        for (m, net) in inputs.nets.iter().enumerate() {
            for (l, (_, locality)) in FIG7_LOCALITIES.iter().enumerate() {
                let tm = &inputs.matrices[instance][m][l];
                let key = format!(
                    "{}/{instance}/{}/{locality}",
                    self.0.name,
                    FIG7_MODES[m].label()
                );
                let r = {
                    let _s = ft_obs::span!("bench.solve");
                    throughput(net, tm, fptas(FIG7_MAX_STEPS, SolverKind::Batched))
                };
                match r {
                    Ok(r) => gate.lambda(&key, r.lambda, r.budget_exhausted, EPSILON),
                    Err(e) => gate.check(Err(format!("{key}: {e}"))),
                }
            }
        }
    }
}

/// `throughput_all_to_all` on the Clos at k with the aggregated engine:
/// every switch pair's commodity collapses into one of two orbits. The
/// instance has no random part, so every seed gives the same input.
struct A2a(Workload);

impl Reps for A2a {
    type Inputs = Network;
    /// Orbits the aggregation solved, when it engaged.
    type Output = Option<usize>;

    fn build(&self, _seed: u64) -> Result<Network, String> {
        materialize(&flat_tree(self.0.k)?, &Mode::Clos)
    }

    fn op(&self, net: &Network, _i: usize, gate: &mut Gate) -> Option<usize> {
        let r = {
            let _s = ft_obs::span!("bench.solve");
            throughput_all_to_all(net, fptas(A2A_MAX_STEPS, SolverKind::Aggregated))
        };
        match r {
            Ok(r) => {
                gate.lambda(self.0.name, r.lambda, r.budget_exhausted, EPSILON);
                r.aggregated
            }
            Err(e) => {
                gate.check(Err(format!("{}: {e}", self.0.name)));
                None
            }
        }
    }

    /// Re-runs the two steps `throughput_all_to_all` performs between the
    /// distance table and the FPTAS, each under its own span.
    fn probe(&self, net: &Network) {
        let dist = SwitchDistances::compute(net);
        let oracle = |a: usize, b: usize| dist.switch_distance(a, b);
        let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
        let weights: Vec<f64> = net.server_counts().iter().map(|&c| f64::from(c)).collect();
        let classes = {
            let _s = ft_obs::span!("bench.symmetry");
            SymmetryClasses::compute(net)
        };
        let _s = ft_obs::span!("bench.quotient");
        std::hint::black_box(AggregatedInstance::all_to_all(
            &cg,
            classes.class_slice(),
            &weights,
            &oracle,
        ));
    }

    fn layers(&self, orbits: &Option<usize>, fold: &Fold, layers: &mut Layers) {
        layers.symmetry_pct = fold.pct(fold.anywhere_ms("bench.symmetry"));
        layers.quotient_pct = fold.pct(fold.anywhere_ms("bench.quotient"));
        layers.orbits = orbits.unwrap_or(0) as f64;
    }
}

/// A DES run on the k flat-tree in Clos mode under ECMP: all-to-all among
/// the first `servers` servers in clusters of [`SIM_CLUSTER`], `rounds`
/// Poisson arrivals per demand. [`Kind::SimConvert`] adds a live
/// conversion of every Pod to global-RG, switching ECMP to KSP.
struct Sim(Workload);

struct SimInputs {
    flows: Vec<FlowSpec>,
    topo: Vec<TopoEvent>,
    sim: DesSimulator,
}

impl Sim {
    fn convert(&self) -> bool {
        self.0.kind == Kind::SimConvert
    }
}

impl Reps for Sim {
    type Inputs = SimInputs;
    type Output = Option<DesReport>;

    fn build(&self, seed: u64) -> Result<SimInputs, String> {
        let ft = flat_tree(self.0.k)?;
        let net = materialize(&ft, &Mode::Clos)?;
        let mut topo = Vec::new();
        if self.convert() {
            let pods = ft.geometry().pods;
            let plan = {
                let _s = ft_obs::span!("bench.plan");
                plan_zone_transition(
                    &ft,
                    &[],
                    &[Zone::new("all", 0..pods, PodMode::GlobalRandom)],
                )
                .map_err(|e| format!("plan: {e}"))?
            };
            topo.push(TopoEvent::Convert(ConversionEvent::from_plan(
                CONVERT_AT,
                CONVERT_LATENCY,
                &plan,
                Some(RouterPolicy::Ksp(KSP_PATHS)),
            )));
        }
        let servers: Vec<_> = net.servers().take(self.0.servers).collect();
        let spec = WorkloadSpec {
            pattern: TrafficPattern::AllToAll,
            cluster_size: SIM_CLUSTER,
            locality: Locality::None,
        };
        let tm = {
            let _s = ft_obs::span!("bench.workload");
            generate_on(&net, &servers, &spec, PLACEMENT_SEED)
        };
        // Storm flows are short (the ECMP tables dominate); conversion
        // flows are long enough to be in flight when the conversion starts.
        let size = if self.convert() { 8.0 } else { 1.0 };
        let flows = flows_with_arrivals(&tm, size, ARRIVAL_RATE, self.0.rounds, seed);
        let sim = DesSimulator::new(&net, RouterPolicy::Ecmp);
        Ok(SimInputs { flows, topo, sim })
    }

    fn op(&self, inputs: &SimInputs, _i: usize, gate: &mut Gate) -> Option<DesReport> {
        let r = {
            let _s = ft_obs::span!("bench.simulate");
            inputs.sim.run(&inputs.flows, &inputs.topo, f64::INFINITY)
        };
        let name = self.0.name;
        match r {
            Ok(rep) => {
                let extra = if rep.unfinished() > 0 || rep.truncated {
                    Err(format!("{name}: {} flows unfinished", rep.unfinished()))
                } else if self.convert() && rep.conversion_reroutes == 0 {
                    Err(format!("{name}: the conversion re-routed no flow"))
                } else {
                    Ok(())
                };
                gate.checksum(name, rep.completion_checksum(), extra);
                Some(rep)
            }
            Err(e) => {
                gate.check(Err(format!("{name}: {e}")));
                None
            }
        }
    }

    /// Router set-up alone: the same simulator with no flows and no events
    /// builds its view and routing tables and stops.
    fn probe(&self, inputs: &SimInputs) {
        let _s = ft_obs::span!("bench.router_setup");
        std::hint::black_box(inputs.sim.run(&[], &[], f64::INFINITY).ok());
    }

    fn layers(&self, rep: &Option<DesReport>, fold: &Fold, layers: &mut Layers) {
        let Some(rep) = rep else { return };
        let ratealloc_ms = rep.solver_ns as f64 / 1e6;
        layers.router_setup_pct = fold.pct(fold.anywhere_ms("bench.router_setup"));
        layers.ratealloc_pct = fold.pct(ratealloc_ms);
        layers.engine_pct = fold.pct(fold.self_ms("des.run", |_| true) - ratealloc_ms);
        layers.conversion_drain_pct = fold.pct(fold.within_ms(&["des.conversion_drain"]));
        layers.conversion_finish_pct = fold.pct(fold.within_ms(&["des.conversion_finish"]));
        layers.conversion_reroutes = rep.conversion_reroutes as f64;
        layers.reallocations = rep.reallocations as f64;
        layers.events = rep.events as f64;
        layers.scheduled = rep.scheduled as f64;
    }
}

/// The serve request rotation: 40 % throughput, 40 % paths, 10 % topo,
/// 10 % convert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    Throughput,
    Paths,
    Topo,
    Convert,
}

const ROTATION: [Verb; 10] = [
    Verb::Throughput,
    Verb::Paths,
    Verb::Throughput,
    Verb::Paths,
    Verb::Topo,
    Verb::Throughput,
    Verb::Paths,
    Verb::Throughput,
    Verb::Paths,
    Verb::Convert,
];

/// One answered request.
struct Answer {
    verb: Verb,
    /// Gate key of a throughput request: `(mode, seed)`.
    key: String,
    ms: f64,
    reply: String,
}

/// Modes the requests cycle through: the three uniform modes and a
/// half-global, quarter-local, quarter-Clos hybrid.
fn serve_modes(pods: usize) -> [String; 4] {
    let g = pods / 2;
    let l = pods / 4;
    let hybrid = format!(
        "hybrid:{}{}{}",
        "g".repeat(g),
        "l".repeat(l),
        "c".repeat(pods - g - l)
    );
    ["clos".into(), "local-rg".into(), "global-rg".into(), hybrid]
}

/// Request `n` of client `id`: the verb follows [`ROTATION`], the mode
/// cycles through `modes`, throughput seeds through `seed..seed +`
/// [`SERVE_SEEDS`], and
/// converts alternate between global-RG and Clos. Clients start half a
/// rotation apart so their converts interleave. Returns the verb, the
/// request line, and for throughput the `(mode, seed)` gate key.
fn request_line(id: usize, n: usize, seed: u64, modes: &[String; 4]) -> (Verb, String, String) {
    let j = n + id * ROTATION.len() / 2;
    let mode = &modes[j % modes.len()];
    let verb = ROTATION[j % ROTATION.len()];
    match verb {
        Verb::Throughput => {
            let s = seed + (j / modes.len()) as u64 % SERVE_SEEDS;
            (verb, throughput_line(mode, s), format!("{mode}/{s}"))
        }
        Verb::Paths => (verb, format!("paths mode={mode}"), String::new()),
        Verb::Topo => (verb, format!("topo mode={mode}"), String::new()),
        Verb::Convert => {
            let to = if (j / ROTATION.len()).is_multiple_of(2) {
                "global-rg"
            } else {
                "clos"
            };
            (verb, format!("convert to={to}"), String::new())
        }
    }
}

fn throughput_line(mode: &str, seed: u64) -> String {
    format!("throughput mode={mode} pattern=hotspot eps={EPSILON} seed={seed}")
}

fn serve_config(w: &Workload) -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        ..ServeConfig::for_k(w.k)
    }
}

/// Sends requests from client `id` until `done(count)` holds.
fn client(
    h: &Handle<'_>,
    id: usize,
    seed: u64,
    modes: &[String; 4],
    done: impl Fn(usize) -> bool,
) -> Vec<Answer> {
    let mut out = Vec::new();
    while !done(out.len()) {
        let (verb, line, key) = request_line(id, out.len(), seed, modes);
        let t0 = Instant::now();
        let reply = {
            let _s = ft_obs::span!("bench.request");
            h.request(&line)
        };
        out.push(Answer {
            verb,
            key,
            ms: t0.elapsed().as_secs_f64() * 1e3,
            reply,
        });
    }
    out
}

/// The closed loop: every client waits for each reply before sending its
/// next request, for `seconds`.
fn closed_loop(h: &Handle<'_>, seed: u64, modes: &[String; 4], seconds: f64) -> (Vec<Answer>, f64) {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(SERVE_CLIENTS));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| s.spawn(move || client(h, id, seed, modes, |_| Instant::now() >= deadline)))
            .collect();
        handles
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    (answers, start.elapsed().as_secs_f64())
}

/// Gates every reply: `OK`, and for throughput a converged λ equal to any
/// earlier λ of the same (mode, seed).
fn gate_answers(name: &str, answers: &[Answer], gate: &mut Gate) {
    for a in answers {
        if !a.reply.starts_with("OK ") {
            gate.check(Err(format!("{name}: reply {:?}", a.reply)));
            continue;
        }
        if a.verb != Verb::Throughput {
            gate.check(Ok(()));
            continue;
        }
        let field = |k: &str| {
            a.reply
                .split_whitespace()
                .find_map(|t| t.strip_prefix(k)?.strip_prefix('='))
        };
        let key = format!("{name}/{}", a.key);
        match field("lambda").and_then(|v| v.parse::<f64>().ok()) {
            Some(l) => gate.lambda(&key, l, field("budget_exhausted") != Some("false"), EPSILON),
            None => gate.check(Err(format!("{key}: no lambda in {:?}", a.reply))),
        }
    }
}

fn latencies(answers: &[Answer], solve: bool) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| (a.verb == Verb::Throughput) == solve)
        .map(|a| a.ms)
        .collect()
}

fn run_serve(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    gate: &mut Gate,
) -> Result<Measured, String> {
    let cfg = serve_config(w);
    let modes = serve_modes(flat_tree(w.k)?.geometry().pods);
    let serve = |f: &mut dyn FnMut(&Handle<'_>)| {
        Service::run(cfg, |h| f(h))
            .map(|_| ())
            .map_err(|e| format!("{}: service: {e}", w.name))
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut measured = None;
    for s in 0..SETUPS {
        let last = s + 1 == SETUPS;
        let t0 = Instant::now();
        serve(&mut |h| {
            // the warm-up: one rotation from one client
            let warm = client(h, 0, seed, &modes, |n| n == ROTATION.len());
            setup_s.push(t0.elapsed().as_secs_f64());
            gate_answers(w.name, &warm, gate);
            if last {
                measured = Some(closed_loop(h, seed, &modes, seconds));
            }
        })?;
    }
    let (answers, elapsed) = measured.ok_or("no load ran")?;
    gate_answers(w.name, &answers, gate);
    let solve = latencies(&answers, true);
    let light = latencies(&answers, false);
    let at = |v: &[f64], q: f64| Summary {
        n: v.len(),
        ..Summary::single(quantile(v, q))
    };
    let details = vec![
        ("serve_solve_p90_ms", at(&solve, 0.9)),
        ("serve_light_p50_ms", at(&light, 0.5)),
        ("serve_light_p90_ms", at(&light, 0.9)),
    ];
    let traced = if trace {
        let untraced = Summary::of(&solve).map_or(0.0, |s| s.median);
        let mut session = None;
        let (result, spans, dropped) = traced(|| {
            let before = Counters::read();
            let r = serve(&mut |h| {
                let (answers, _) = closed_loop(h, seed, &modes, seconds.min(SERVE_TRACE_SECONDS));
                session = Some((answers, h.snapshot()));
            });
            (r, Counters::read().since(before))
        });
        let (r, counters) = result;
        r?;
        let (answers, snap) = session.ok_or("no traced session ran")?;
        gate_answers(w.name, &answers, gate);
        let fold = Fold::new(&spans, "serve.request");
        let mut layers = Layers::common(&fold, counters, untraced);
        serve_layers(&fold, &snap, &mut layers);
        let traced_solve = Summary::of(&latencies(&answers, true)).map_or(0.0, |s| s.median);
        layers.trace_overhead_pct = 100.0 * (traced_solve - untraced) / untraced;
        layers.dropped_lines = dropped as f64;
        Some((layers, spans))
    } else {
        None
    };
    Ok(Measured {
        setup_s,
        ops_per_s: answers.len() as f64 / elapsed,
        op_ms: solve,
        details,
        traced,
    })
}

fn serve_layers(fold: &Fold, snap: &Snapshot, layers: &mut Layers) {
    let lookups = snap.cache_hits + snap.cache_misses;
    if lookups > 0 {
        layers.cache_hit_ratio = snap.cache_hits as f64 / lookups as f64;
    }
    layers.materializations = snap.materializations as f64;
    layers.path_fills = snap.path_computations as f64;
    layers.invalidations = snap.invalidations as f64;
    layers.path_fill_pct = fold.pct(fold.within_ms(&["serve.path_fill"]));
    let self_pct = |verb: &str| {
        fold.pct(fold.self_ms("serve.request", |s| {
            s.field_str("verb").as_deref() == Some(verb)
        }))
    };
    layers.self_pct_throughput = self_pct("throughput");
    layers.self_pct_paths = self_pct("paths");
    layers.self_pct_topo = self_pct("topo");
    layers.self_pct_convert = self_pct("convert");
}
