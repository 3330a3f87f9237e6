//! The event-driven flow simulator, built on the [`ft_des`] engine.
//!
//! Flow dynamics are three [`ft_des::Component`]s — a flow source, a
//! topology driver, and a rate allocator — exchanging events through the
//! deterministic queue. Between events, rates are the max-min fair
//! allocation of [`crate::ratealloc`] over each flow's pinned path, kept
//! in one [`MaxMin`] per run that re-solves only the link-sharing
//! components an arrival, completion or re-route reaches. Link
//! failures and repairs re-route the flows whose paths they break, and a
//! **live zone conversion** (the paper's Clos↔random-graph transitions)
//! is a [`ConversionEvent`]: it drains the links the
//! [`ft_control::ReconfigPlan`] removes, re-routes the flows riding
//! them, and after the modeled converter reconfiguration latency brings
//! the new links up and re-derives routing under the new policy.
//!
//! Determinism contract (DESIGN.md §14): seeding order is topology
//! events then flow arrivals, so at equal timestamps a failure, repair
//! or conversion drain is applied before the flows arriving at that
//! instant are admitted, and they route on the changed topology. All
//! follow-up events carry strictly larger sequence numbers, and no
//! handler lets wall-clock time or unordered containers influence the
//! schedule. A fixed scenario therefore produces bit-identical reports
//! and traces regardless of `FT_THREADS`. (The allocator keeps a
//! measurement-only stopwatch around each re-solve —
//! [`DesReport::solver_ns`] — which never feeds back into events, the
//! checksum, or the deterministic summary.)

use crate::ratealloc::{DirectedLink, MaxMin};
use ft_control::routing::{EcmpRoutes, KspRoutes, ServerPath};
use ft_control::ReconfigPlan;
use ft_des::{Component, ComponentId, Context, Engine, ScheduleError};
use ft_graph::{EdgeId, Graph, GraphError, NodeId};
use ft_topo::Network;
use std::fmt;
use std::fmt::Write as _;

/// Which routing discipline the simulator uses (mirrors `ft-control`'s
/// per-mode choice: ECMP for Clos, KSP for random-graph modes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Hash over equal-cost shortest paths.
    Ecmp,
    /// Hash over the k shortest loopless paths.
    Ksp(usize),
}

/// A flow to simulate.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Source server node.
    pub src: NodeId,
    /// Destination server node.
    pub dst: NodeId,
    /// Volume to transfer (in capacity·time units).
    pub size: f64,
    /// Arrival time.
    pub start: f64,
}

/// A scheduled topology event: a link failure or repair, or a whole
/// reconfiguration plan applied live.
#[derive(Clone, Debug)]
pub enum TopoEvent {
    /// Link goes down at the given time.
    LinkDown(f64, EdgeId),
    /// Link comes back at the given time.
    LinkUp(f64, EdgeId),
    /// A zone conversion starts at [`ConversionEvent::at`].
    Convert(ConversionEvent),
}

impl TopoEvent {
    /// When the event fires.
    pub fn time(&self) -> f64 {
        match self {
            TopoEvent::LinkDown(t, _) | TopoEvent::LinkUp(t, _) => *t,
            TopoEvent::Convert(c) => c.at,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            TopoEvent::LinkDown(..) => "link_down",
            TopoEvent::LinkUp(..) => "link_up",
            TopoEvent::Convert(_) => "conversion_start",
        }
    }
}

/// A live Clos↔random-graph conversion: the link delta of a
/// [`ReconfigPlan`] plus the modeled converter reconfiguration latency.
///
/// At `at` the removed links are drained (taken down, flows re-routed
/// away); at `at + latency` the added links come up, the routing policy
/// optionally switches, and affected flows re-route again. This is the
/// paper's claim made executable: conversion is a *traffic-visible*
/// transient, not an instantaneous graph swap.
#[derive(Clone, Debug)]
pub struct ConversionEvent {
    /// Conversion start time (drain begins).
    pub at: f64,
    /// Converter reconfiguration latency: delay between drain and the
    /// new links carrying traffic. Must be ≥ 0 and finite.
    pub latency: f64,
    /// Endpoint pairs (normalized, with multiplicity) whose links are
    /// removed, as produced by [`ReconfigPlan::links_removed`].
    pub removed: Vec<(u32, u32)>,
    /// Endpoint pairs whose links are added when the conversion
    /// finishes, as produced by [`ReconfigPlan::links_added`].
    pub added: Vec<(u32, u32)>,
    /// Routing policy to switch to at conversion finish (e.g. ECMP →
    /// KSP when leaving Clos mode); `None` keeps the current policy.
    pub new_policy: Option<RouterPolicy>,
}

impl ConversionEvent {
    /// Builds a conversion event from a reconfiguration plan.
    ///
    /// # Panics
    /// Panics when `latency` is negative or not finite; input from
    /// outside the program (scenario files) is checked before it gets
    /// here.
    pub fn from_plan(
        at: f64,
        latency: f64,
        plan: &ReconfigPlan,
        new_policy: Option<RouterPolicy>,
    ) -> Self {
        assert!(
            latency >= 0.0 && latency.is_finite(),
            "latency must be finite and >= 0"
        );
        ConversionEvent {
            at,
            latency,
            removed: plan.links_removed.clone(),
            added: plan.links_added.clone(),
            new_policy,
        }
    }
}

/// Per-flow outcome from the event-driven simulator.
#[derive(Clone, Debug)]
pub struct DesFlowRecord {
    /// Index into the submitted flow list.
    pub flow: usize,
    /// Completion time (absolute), or `None` if unfinished at the
    /// horizon.
    pub completion: Option<f64>,
    /// Times the flow was re-routed, for any reason.
    pub reroutes: usize,
    /// Subset of `reroutes` caused by zone conversions (drain or
    /// finish).
    pub conversion_reroutes: usize,
    /// Total time the flow spent unroutable (parked at rate 0).
    pub parked_time: f64,
}

/// Why a simulation run failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DesError {
    /// A seeded flow arrival or topology event had an invalid
    /// timestamp.
    Seed(ScheduleError),
    /// A handler scheduled an invalid follow-up event mid-run
    /// (indicates a simulator bug; surfaced rather than swallowed).
    Schedule(ScheduleError),
    /// The routing policy cannot cover the fabric: ECMP's `u16`
    /// distance rows overflow at `u16::MAX` switches.
    Routing(GraphError),
    /// A per-direction link capacity that is not finite and positive.
    InvalidCapacity(f64),
}

impl fmt::Display for DesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesError::Seed(e) => write!(f, "invalid seeded event: {e}"),
            DesError::Schedule(e) => write!(f, "invalid follow-up event: {e}"),
            DesError::Routing(e) => write!(f, "routing: {e}"),
            DesError::InvalidCapacity(c) => {
                write!(f, "link capacity must be finite and positive, got {c}")
            }
        }
    }
}

impl std::error::Error for DesError {}

/// Simulation output of the event-driven engine.
#[derive(Clone, Debug)]
pub struct DesReport {
    /// Per-flow outcomes, index-aligned with the submitted flows.
    pub flows: Vec<DesFlowRecord>,
    /// Horizon if truncated, else the time of the last event processed.
    pub makespan: f64,
    /// Rate re-allocations performed.
    pub reallocations: usize,
    /// Events dispatched by the engine.
    pub events: u64,
    /// Follow-up events scheduled by handlers.
    pub scheduled: u64,
    /// True when the run stopped at the horizon with events pending.
    pub truncated: bool,
    /// Total re-routes across all flows.
    pub reroutes: usize,
    /// Total conversion-caused re-routes across all flows.
    pub conversion_reroutes: usize,
    /// Conversions completed.
    pub conversions: usize,
    /// Physical links taken down (failures plus conversion drains).
    pub links_removed: usize,
    /// Physical links added by conversion finishes.
    pub links_added: usize,
    /// Conversion-plan link removals that matched no live link (plan
    /// drift; should be 0 in a consistent scenario).
    pub missing_links: usize,
    /// Wall-clock nanoseconds spent inside [`MaxMin::solve`] across all
    /// re-allocations: the walk that collects the link-sharing
    /// components the changes reach, and the filling rounds over them.
    /// The slot-list updates of admissions, completions and re-routes
    /// fall outside it. Measurement only: timing-dependent,
    /// excluded from [`DesReport::completion_checksum`] and from the
    /// deterministic `ft-des-sim/1` summary, so byte-comparison gates
    /// are unaffected. Lets benchmarks separate event-loop throughput
    /// from solver cost.
    pub solver_ns: u64,
    /// JSONL trace lines (one per dispatched event) when the run was
    /// traced, else `None`.
    pub trace: Option<Vec<String>>,
}

impl DesReport {
    /// Mean flow completion time over finished flows; `NaN` when
    /// nothing finished.
    pub fn mean_fct(&self, specs: &[FlowSpec]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.flows {
            if let Some(c) = r.completion {
                sum += c - specs[r.flow].start;
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Number of unfinished flows.
    pub fn unfinished(&self) -> usize {
        self.flows.iter().filter(|r| r.completion.is_none()).count()
    }

    /// FNV-style digest of every flow's completion bits and re-route
    /// counters. Two runs of the same scenario must agree bit-for-bit;
    /// used by the determinism tests and the `ftctl bench` gate.
    pub fn completion_checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(PRIME);
        };
        for r in &self.flows {
            mix(&mut h, r.flow as u64);
            mix(&mut h, r.completion.map_or(u64::MAX, f64::to_bits));
            mix(&mut h, r.reroutes as u64);
            mix(&mut h, r.conversion_reroutes as u64);
        }
        h
    }
}

/// Event payload dispatched through the ft-des queue. Indices refer to
/// the run's spec/topology slices, kept in [`World`].
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Flow `specs[i]` arrives.
    Arrival(usize),
    /// Recompute the max-min allocation (coalesced via `World::dirty`).
    Reallocate,
    /// Check for completions under the allocation of the given epoch.
    Harvest(u64),
    /// Apply topology event `topo[i]` (failure, repair, or conversion
    /// drain).
    Topo(usize),
    /// Conversion `topo[i]` finishes: new links up, policy switch.
    TopoFinish(usize),
}

/// An active flow; its path and rate live in [`World::alloc`] under the
/// same index.
struct Active {
    idx: usize,
    remaining: f64,
    hash: u64,
    ends: Option<(NodeId, NodeId)>, // attachment switches when routable
}

/// Which part of a conversion's disruption window a timeline point
/// belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConvPhase {
    /// Removed links are down, the converter latency is running.
    Drain,
    /// New links are live and the post-finish re-route has happened.
    Post,
}

/// Telemetry state for the conversion currently being profiled: while
/// set, every reallocation emits one `des.timeline` span (tracing on)
/// so `ftctl trace` can render the disruption profile per epoch.
#[derive(Clone, Copy, Debug)]
struct ConvObs {
    phase: ConvPhase,
    /// Links the plan removes in total (drain-progress denominator).
    links_planned: u64,
    /// Links this conversion has actually taken down.
    links_removed: u64,
}

enum DesRouter {
    Ecmp(EcmpRoutes),
    Ksp(KspRoutes),
}

impl DesRouter {
    /// Builds routing state over the switch view (id-preserving, so
    /// path edge ids index the full graph's liveness table directly).
    /// Every topology change rebuilds: ECMP refills its distance rows on
    /// demand, KSP refills its path cache.
    fn build(view: &Graph, policy: RouterPolicy) -> Result<DesRouter, GraphError> {
        Ok(match policy {
            RouterPolicy::Ecmp => DesRouter::Ecmp(EcmpRoutes::compute_on(view)?),
            RouterPolicy::Ksp(k) => DesRouter::Ksp(KspRoutes::new_on(view, k)),
        })
    }

    fn route(&self, src: NodeId, dst: NodeId, hash: u64) -> Option<ServerPath> {
        match self {
            DesRouter::Ecmp(r) => r.path(src, dst, hash),
            DesRouter::Ksp(r) => r.path(src, dst, hash),
        }
    }
}

/// Shared simulation state mutated by the three components.
struct World {
    net: Network,
    view: Graph,
    policy: RouterPolicy,
    router: DesRouter,
    specs: Vec<FlowSpec>,
    topo: Vec<TopoEvent>,
    active: Vec<Active>,
    /// Paths (`None` = unroutable, parked) and max-min rates of the
    /// active flows, index-aligned with `active`.
    alloc: MaxMin,
    records: Vec<DesFlowRecord>,
    /// Time up to which flow progress has been applied.
    last: f64,
    /// A `Reallocate` is pending for the current timestamp.
    dirty: bool,
    /// Bumped per allocation; stale `Harvest` events carry old epochs.
    epoch: u64,
    reallocations: usize,
    /// Accumulated wall-clock time inside [`MaxMin::solve`] (measurement
    /// only; see [`DesReport::solver_ns`]).
    solver_ns: u64,
    conversions: usize,
    links_removed: usize,
    links_added: usize,
    missing_links: usize,
    /// Set while a conversion's disruption window is being profiled.
    conv_obs: Option<ConvObs>,
    topo_id: ComponentId,
    alloc_id: ComponentId,
    error: Option<DesError>,
}

impl World {
    /// Schedules a follow-up event, recording (not panicking on) the
    /// first failure; the run surfaces it as [`DesError::Schedule`].
    fn sched(&mut self, ctx: &mut Context<'_, Ev>, at: f64, target: ComponentId, ev: Ev) {
        if self.error.is_none() {
            if let Err(e) = ctx.schedule(at, target, ev) {
                self.error = Some(DesError::Schedule(e));
            }
        }
    }

    /// Rebuilds the router over the current view, recording the first
    /// failure as [`DesError::Routing`].
    fn rebuild_router(&mut self) {
        match DesRouter::build(&self.view, self.policy) {
            Ok(r) => self.router = r,
            Err(e) => {
                self.error.get_or_insert(DesError::Routing(e));
            }
        }
    }

    /// Applies flow progress (and parked-time accounting) from `last`
    /// up to `now`. Every handler calls this first, so rates in effect
    /// over `[last, now)` are the ones that were current then.
    fn advance_to(&mut self, now: f64) {
        let dt = now - self.last;
        if dt <= 0.0 {
            self.last = now;
            return;
        }
        let alloc = &self.alloc;
        for (i, (f, &r)) in self.active.iter_mut().zip(alloc.rates()).enumerate() {
            if alloc.path(i).is_none() {
                self.records[f.idx].parked_time += dt;
            } else if r > 0.0 && r.is_finite() {
                f.remaining -= r * dt;
            }
        }
        self.last = now;
    }

    fn resolve_ends(&self, idx: usize) -> Option<(NodeId, NodeId)> {
        let s = self.specs[idx];
        match (
            self.net.try_attachment(s.src),
            self.net.try_attachment(s.dst),
        ) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }

    fn admit(&mut self, idx: usize, ctx: &mut Context<'_, Ev>) {
        self.advance_to(ctx.now());
        let hash = flow_hash(idx);
        let ends = self.resolve_ends(idx);
        let path = ends.and_then(|(a, b)| route_links(&self.router, a, b, hash));
        if path.as_deref().is_some_and(|p| p.is_empty()) {
            // same-switch flow: finishes instantly, never contends
            self.records[idx].completion = Some(ctx.now());
            return;
        }
        self.active.push(Active {
            idx,
            remaining: self.specs[idx].size,
            hash,
            ends,
        });
        self.alloc.push(path);
        self.request_realloc(ctx);
    }

    /// Coalesces re-allocation requests: at most one `Reallocate` is
    /// pending per timestamp, scheduled behind every already-queued
    /// event at `now` (larger seq), so it sees all of them applied.
    fn request_realloc(&mut self, ctx: &mut Context<'_, Ev>) {
        if !self.dirty {
            self.dirty = true;
            let at = ctx.now();
            self.sched(ctx, at, self.alloc_id, Ev::Reallocate);
        }
    }

    fn finish_flow(&mut self, i: usize, now: f64) {
        let f = self.active.swap_remove(i);
        self.alloc.swap_remove(i);
        self.records[f.idx].completion = Some(now);
    }

    fn reallocate(&mut self, ctx: &mut Context<'_, Ev>) {
        self.advance_to(ctx.now());
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.reallocations += 1;
        // Re-routes can land a flow on an empty (same-switch) path;
        // those finish instantly, like at admission.
        let mut i = 0;
        while i < self.active.len() {
            if self.alloc.path(i).is_some_and(<[_]>::is_empty) {
                self.finish_flow(i, ctx.now());
            } else {
                i += 1;
            }
        }
        let t0 = std::time::Instant::now();
        self.alloc.solve();
        self.solver_ns = self
            .solver_ns
            .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.epoch += 1;
        self.arm_harvest(ctx);
        self.emit_timeline(ctx);
    }

    /// Emits one `des.timeline` span for the conversion window being
    /// profiled: a point per re-allocation covering the drain (links
    /// down, converter latency running) and one `post` point after the
    /// finish, which closes the window. No-op outside a window; the
    /// field sums are only computed while tracing is on. Telemetry
    /// only — it reads state, never schedules or mutates flows, so the
    /// deterministic summary and event trace are unaffected.
    fn emit_timeline(&mut self, ctx: &Context<'_, Ev>) {
        let Some(obs) = self.conv_obs else { return };
        if obs.phase == ConvPhase::Post {
            self.conv_obs = None; // the post-finish point is the last one
        }
        if !ft_obs::enabled() {
            return;
        }
        let parked = (0..self.alloc.len())
            .filter(|&i| self.alloc.path(i).is_none())
            .count();
        let reroutes: usize = self.records.iter().map(|r| r.reroutes).sum();
        let conversion_reroutes: usize = self.records.iter().map(|r| r.conversion_reroutes).sum();
        let _g = ft_obs::span!(
            "des.timeline",
            epoch = self.epoch,
            t = ctx.now(),
            phase = match obs.phase {
                ConvPhase::Drain => "drain",
                ConvPhase::Post => "post",
            },
            active = self.active.len(),
            parked = parked,
            queue = ctx.pending(),
            scheduled = ctx.scheduled_so_far(),
            reroutes = reroutes,
            conversion_reroutes = conversion_reroutes,
            links_removed = obs.links_removed,
            links_planned = obs.links_planned,
        );
    }

    /// Schedules the next completion check under the current rates.
    fn arm_harvest(&mut self, ctx: &mut Context<'_, Ev>) {
        let mut dt = f64::INFINITY;
        for (f, &r) in self.active.iter().zip(self.alloc.rates()) {
            if r > 0.0 && r.is_finite() {
                let t = f.remaining / r;
                if t < dt {
                    dt = t;
                }
            }
        }
        if dt.is_finite() {
            let at = ctx.now() + dt.max(0.0);
            let ep = self.epoch;
            self.sched(ctx, at, self.alloc_id, Ev::Harvest(ep));
        }
    }

    fn harvest(&mut self, ep: u64, ctx: &mut Context<'_, Ev>) {
        if ep != self.epoch {
            return; // superseded by a later allocation
        }
        self.advance_to(ctx.now());
        let mut finished = false;
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].remaining <= 1e-9 {
                self.finish_flow(i, ctx.now());
                finished = true;
            } else {
                i += 1;
            }
        }
        if finished {
            self.request_realloc(ctx);
        } else {
            // float drift: the predicted completion fell short; re-arm
            self.arm_harvest(ctx);
        }
    }

    fn topo_event(&mut self, i: usize, ctx: &mut Context<'_, Ev>) {
        self.advance_to(ctx.now());
        match self.topo[i].clone() {
            TopoEvent::LinkDown(_, e) => {
                if self.net.graph_mut().remove_edge(e) {
                    self.links_removed += 1;
                }
                if self.view.remove_edge(e) {
                    self.rebuild_router();
                }
                self.reroute_stale(false);
                self.request_realloc(ctx);
            }
            TopoEvent::LinkUp(_, e) => {
                self.net.graph_mut().restore_edge(e);
                if self.view.restore_edge(e) {
                    self.rebuild_router();
                }
                self.reroute_stale(false);
                self.request_realloc(ctx);
            }
            TopoEvent::Convert(ev) => {
                // Drain: take down every link the plan removes. Pairs
                // may be server uplinks (4-port conversions rewire
                // attachments); those don't exist in the switch view.
                let mut obs_span = ft_obs::span!("des.conversion_drain", t = ctx.now());
                let removed_before = self.links_removed;
                let mut view_changed = false;
                for &(a, b) in &ev.removed {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let e = self
                        .net
                        .graph()
                        .neighbors(a)
                        .filter(|&(n, _)| n == b)
                        .map(|(_, e)| e)
                        .min();
                    let Some(e) = e else {
                        self.missing_links += 1;
                        continue;
                    };
                    self.net.graph_mut().remove_edge(e);
                    self.links_removed += 1;
                    view_changed |= self.view.remove_edge(e);
                }
                if view_changed {
                    self.rebuild_router();
                }
                let drained = self.links_removed - removed_before;
                self.conv_obs = Some(ConvObs {
                    phase: ConvPhase::Drain,
                    links_planned: ev.removed.len() as u64,
                    links_removed: drained as u64,
                });
                if let Some(s) = obs_span.as_mut() {
                    s.field("links_planned", ev.removed.len());
                    s.field("links_removed", drained);
                }
                self.reroute_stale(true);
                self.request_realloc(ctx);
                let at = ctx.now() + ev.latency;
                self.sched(ctx, at, self.topo_id, Ev::TopoFinish(i));
            }
        }
    }

    fn topo_finish(&mut self, i: usize, ctx: &mut Context<'_, Ev>) {
        self.advance_to(ctx.now());
        let TopoEvent::Convert(ev) = self.topo[i].clone() else {
            return; // only conversions schedule a finish
        };
        let _obs_span = ft_obs::span!(
            "des.conversion_finish",
            t = ctx.now(),
            links_added = ev.added.len(),
        );
        for &(a, b) in &ev.added {
            self.net.graph_mut().add_edge(NodeId(a), NodeId(b));
            self.links_added += 1;
        }
        if let Some(p) = ev.new_policy {
            self.policy = p;
        }
        // New edge ids extend the shared id space; rebuild the view so
        // the router sees them.
        self.view = self.net.switch_view();
        self.rebuild_router();
        self.conversions += 1;
        if let Some(obs) = self.conv_obs.as_mut() {
            obs.phase = ConvPhase::Post;
        }
        self.reroute_stale(true);
        self.request_realloc(ctx);
    }

    /// Re-resolves every active flow whose attachment drifted or whose
    /// path crosses a dead link, counting the re-route even when the
    /// flow stays unroutable: the counter records attempts, so a parked
    /// flow re-tried at every topology change shows each try.
    fn reroute_stale(&mut self, conversion: bool) {
        for fi in 0..self.active.len() {
            let (idx, hash, old_ends) = {
                let f = &self.active[fi];
                (f.idx, f.hash, f.ends)
            };
            let ends = self.resolve_ends(idx);
            let path_ok = ends.is_some()
                && old_ends == ends
                && self
                    .alloc
                    .path(fi)
                    .is_some_and(|p| p.iter().all(|dl| self.view.edge_alive(dl.edge)));
            if path_ok {
                continue;
            }
            let new_path = ends.and_then(|(a, b)| route_links(&self.router, a, b, hash));
            self.active[fi].ends = ends;
            self.alloc.set_path(fi, new_path);
            let rec = &mut self.records[idx];
            rec.reroutes += 1;
            if conversion {
                rec.conversion_reroutes += 1;
            }
        }
    }
}

struct FlowSource;

impl Component<World, Ev> for FlowSource {
    fn name(&self) -> &'static str {
        "flows"
    }

    fn on_event(&mut self, event: &Ev, w: &mut World, ctx: &mut Context<'_, Ev>) {
        if let Ev::Arrival(idx) = *event {
            w.admit(idx, ctx);
        }
    }
}

struct TopologyDriver;

impl Component<World, Ev> for TopologyDriver {
    fn name(&self) -> &'static str {
        "topology"
    }

    fn on_event(&mut self, event: &Ev, w: &mut World, ctx: &mut Context<'_, Ev>) {
        match *event {
            Ev::Topo(i) => w.topo_event(i, ctx),
            Ev::TopoFinish(i) => w.topo_finish(i, ctx),
            _ => {}
        }
    }
}

struct RateAllocator;

impl Component<World, Ev> for RateAllocator {
    fn name(&self) -> &'static str {
        "ratealloc"
    }

    fn on_event(&mut self, event: &Ev, w: &mut World, ctx: &mut Context<'_, Ev>) {
        match *event {
            Ev::Reallocate => w.reallocate(ctx),
            Ev::Harvest(ep) => w.harvest(ep, ctx),
            _ => {}
        }
    }
}

/// The event-driven simulator. Owns a pristine copy of the network;
/// each run clones it, so one simulator can replay many scenarios.
pub struct DesSimulator {
    net: Network,
    policy: RouterPolicy,
    capacity: f64,
}

impl DesSimulator {
    /// Creates a simulator over (a clone of) the network with unit
    /// capacity per link direction.
    pub fn new(net: &Network, policy: RouterPolicy) -> Self {
        DesSimulator {
            net: net.clone(),
            policy,
            capacity: 1.0,
        }
    }

    /// Overrides the per-direction link capacity.
    ///
    /// Fails with [`DesError::InvalidCapacity`] unless `capacity` is
    /// finite and positive.
    pub fn with_capacity(mut self, capacity: f64) -> Result<Self, DesError> {
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(DesError::InvalidCapacity(capacity));
        }
        self.capacity = capacity;
        Ok(self)
    }

    /// Runs the scenario to completion or `horizon`, whichever comes
    /// first.
    pub fn run(
        &self,
        specs: &[FlowSpec],
        topo: &[TopoEvent],
        horizon: f64,
    ) -> Result<DesReport, DesError> {
        self.run_inner(specs, topo, horizon, false)
    }

    /// [`DesSimulator::run`] with a JSONL trace: one line per
    /// dispatched event, in dispatch order, in
    /// [`DesReport::trace`].
    pub fn run_traced(
        &self,
        specs: &[FlowSpec],
        topo: &[TopoEvent],
        horizon: f64,
    ) -> Result<DesReport, DesError> {
        self.run_inner(specs, topo, horizon, true)
    }

    fn run_inner(
        &self,
        specs: &[FlowSpec],
        topo: &[TopoEvent],
        horizon: f64,
        traced: bool,
    ) -> Result<DesReport, DesError> {
        let mut span = ft_obs::span!("sim.des", flows = specs.len(), topo = topo.len());
        let net = self.net.clone();
        let view = net.switch_view();
        let router = DesRouter::build(&view, self.policy).map_err(DesError::Routing)?;

        let mut engine: Engine<World, Ev> = Engine::new();
        let flow_id = engine.register(Box::new(FlowSource));
        let topo_id = engine.register(Box::new(TopologyDriver));
        let alloc_id = engine.register(Box::new(RateAllocator));

        // Seeding order is part of the determinism contract: topology
        // events first, then arrivals, so at equal timestamps a flow is
        // admitted (and routed) on the topology the events leave.
        for (i, ev) in topo.iter().enumerate() {
            engine
                .schedule(ev.time(), topo_id, Ev::Topo(i))
                .map_err(DesError::Seed)?;
        }
        for (i, s) in specs.iter().enumerate() {
            engine
                .schedule(s.start, flow_id, Ev::Arrival(i))
                .map_err(DesError::Seed)?;
        }

        let mut world = World {
            net,
            view,
            policy: self.policy,
            router,
            specs: specs.to_vec(),
            topo: topo.to_vec(),
            active: Vec::new(),
            alloc: MaxMin::new(self.capacity),
            records: (0..specs.len())
                .map(|flow| DesFlowRecord {
                    flow,
                    completion: None,
                    reroutes: 0,
                    conversion_reroutes: 0,
                    parked_time: 0.0,
                })
                .collect(),
            last: 0.0,
            dirty: false,
            epoch: 0,
            reallocations: 0,
            solver_ns: 0,
            conversions: 0,
            links_removed: 0,
            links_added: 0,
            missing_links: 0,
            conv_obs: None,
            topo_id,
            alloc_id,
            error: None,
        };

        let mut trace: Option<Vec<String>> = if traced { Some(Vec::new()) } else { None };
        let stats = match trace.as_mut() {
            Some(lines) => {
                let kinds: Vec<&'static str> = topo.iter().map(TopoEvent::kind).collect();
                engine.run_observed(&mut world, horizon, |key, component, ev| {
                    lines.push(trace_line(&key, component, ev, &kinds));
                })
            }
            None => engine.run(&mut world, horizon),
        };
        if let Some(e) = world.error {
            return Err(e);
        }

        let mut makespan = engine.now();
        if stats.truncated && horizon.is_finite() {
            // account parked time / partial progress up to the cut
            world.advance_to(horizon);
            makespan = horizon;
        }

        let report = DesReport {
            reroutes: world.records.iter().map(|r| r.reroutes).sum(),
            conversion_reroutes: world.records.iter().map(|r| r.conversion_reroutes).sum(),
            flows: world.records,
            makespan,
            reallocations: world.reallocations,
            events: stats.processed,
            scheduled: stats.scheduled,
            truncated: stats.truncated,
            conversions: world.conversions,
            links_removed: world.links_removed,
            links_added: world.links_added,
            missing_links: world.missing_links,
            solver_ns: world.solver_ns,
            trace,
        };
        if let Some(s) = span.as_mut() {
            s.field("events", report.events);
            s.field("reroutes", report.reroutes as u64);
            s.field("conversions", report.conversions as u64);
        }
        Ok(report)
    }
}

/// Path-selection hash of flow `idx`: a Fibonacci multiply of the flow's
/// index in the submitted list, so its path depends on that index and the
/// topology alone, never on arrival order or timing. Pinned: changing the
/// mixing moves every checksum.
fn flow_hash(idx: usize) -> u64 {
    (idx as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03
}

/// Routes and converts a switch-level path into directed links.
fn route_links(
    router: &DesRouter,
    src: NodeId,
    dst: NodeId,
    hash: u64,
) -> Option<Vec<DirectedLink>> {
    if src == dst {
        return Some(Vec::new());
    }
    let path = router.route(src, dst, hash)?;
    let mut out = Vec::with_capacity(path.edges.len());
    for (i, &e) in path.edges.iter().enumerate() {
        let (a, b) = (path.switches[i], path.switches[i + 1]);
        out.push(DirectedLink {
            edge: e,
            forward: a.0 < b.0,
        });
    }
    Some(out)
}

/// One JSONL trace line. `f64` `Display` never prints exponent
/// notation, so `t` is always a valid JSON number.
fn trace_line(
    key: &ft_des::EventKey,
    component: &'static str,
    ev: &Ev,
    kinds: &[&'static str],
) -> String {
    let t = key.time.value();
    let seq = key.seq;
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{{\"t\":{t},\"seq\":{seq},\"component\":\"{component}\","
    );
    match *ev {
        Ev::Arrival(i) => {
            let _ = write!(line, "\"kind\":\"arrival\",\"flow\":{i}}}");
        }
        Ev::Reallocate => line.push_str("\"kind\":\"reallocate\"}"),
        Ev::Harvest(ep) => {
            let _ = write!(line, "\"kind\":\"harvest\",\"epoch\":{ep}}}");
        }
        Ev::Topo(i) => {
            let kind = kinds.get(i).copied().unwrap_or("topo");
            let _ = write!(line, "\"kind\":\"{kind}\",\"event\":{i}}}");
        }
        Ev::TopoFinish(i) => {
            let _ = write!(line, "\"kind\":\"conversion_finish\",\"event\":{i}}}");
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::{FlatTree, FlatTreeConfig, Mode, PodMode};
    use ft_topo::fat_tree;

    fn k4() -> Network {
        fat_tree(4).unwrap()
    }

    fn server(net: &Network, i: usize) -> NodeId {
        net.servers().nth(i).unwrap()
    }

    fn ecmp(net: &Network, specs: &[FlowSpec], topo: &[TopoEvent]) -> DesReport {
        DesSimulator::new(net, RouterPolicy::Ecmp)
            .run(specs, topo, 1e9)
            .unwrap()
    }

    /// Every core–aggregation link, in edge-id order.
    fn agg_core_links(net: &Network) -> Vec<EdgeId> {
        use ft_topo::DeviceKind::{Aggregation, Core};
        net.graph()
            .edges()
            .filter(|&(_, a, b)| {
                matches!(
                    (net.kind(a), net.kind(b)),
                    (Core, Aggregation) | (Aggregation, Core)
                )
            })
            .map(|(e, _, _)| e)
            .collect()
    }

    /// Checks a run against values recorded before the next-transition
    /// simulator was retired: each completion within 1e-9 of the one it
    /// computed on the same input, and the DES checksum bit for bit.
    fn check_recorded(rep: &DesReport, legacy: &[f64], checksum: u64) {
        assert_eq!(rep.flows.len(), legacy.len());
        for (r, &want) in rep.flows.iter().zip(legacy) {
            let got = r.completion.unwrap();
            assert!(
                (got - want).abs() < 1e-9,
                "flow {}: {got} vs {want}",
                r.flow
            );
        }
        assert_eq!(rep.completion_checksum(), checksum);
    }

    #[test]
    fn single_flow_fct_matches_legacy() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 2.0,
            start: 0.0,
        }];
        let rep = ecmp(&net, &specs, &[]);
        assert_eq!(rep.flows[0].completion, Some(2.0));
        assert_eq!(rep.unfinished(), 0);
        assert!((rep.mean_fct(&specs) - 2.0).abs() < 1e-9);
        check_recorded(&rep, &[2.0], 0x0d25_767f_9dce_13f5);
    }

    #[test]
    fn same_switch_flow_instant() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 1),
            size: 5.0,
            start: 3.0,
        }];
        let rep = ecmp(&net, &specs, &[]);
        assert_eq!(rep.flows[0].completion, Some(3.0));
        assert_eq!(rep.events, 1); // one arrival, no realloc needed
    }

    #[test]
    fn matches_legacy_on_event_free_workload() {
        let net = k4();
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..12)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[(i + 5) % servers.len()],
                size: 1.0 + i as f64 * 0.5,
                start: (i % 3) as f64 * 0.25,
            })
            .collect();
        let rep = ecmp(&net, &specs, &[]);
        let legacy = [
            1.5, 1.75, 3.0, 2.5, 6.25, 4.0, 7.75, 8.5, 5.5, 5.5, 6.25, 7.0,
        ];
        check_recorded(&rep, &legacy, 0x740e_8887_2730_8865);
        assert!((rep.makespan - 8.5).abs() < 1e-9);
    }

    #[test]
    fn matches_legacy_on_link_failures() {
        let net = k4();
        let agg_core = agg_core_links(&net);
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 10.0,
            start: 0.0,
        }];
        let topo = [
            TopoEvent::LinkDown(2.0, agg_core[0]),
            TopoEvent::LinkDown(2.0, agg_core[1]),
            TopoEvent::LinkUp(4.0, agg_core[0]),
        ];
        check_recorded(&ecmp(&net, &specs, &topo), &[10.0], 0x3271_767f_9dce_13f5);
    }

    #[test]
    fn staggered_arrivals() {
        let net = k4();
        let flow = |start| FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 1.0,
            start,
        };
        let rep = ecmp(&net, &[flow(0.0), flow(10.0)], &[]);
        assert_eq!(rep.flows[0].completion, Some(1.0));
        assert_eq!(rep.flows[1].completion, Some(11.0));
    }

    /// Both servers of one edge switch send to the same remote Pod: the
    /// flows share an uplink or not, depending on their hashes, so each
    /// finishes somewhere in [1, 2].
    #[test]
    fn contending_flows_share() {
        let net = k4();
        let specs = [0, 1].map(|i| FlowSpec {
            src: server(&net, i),
            dst: server(&net, 8 + i),
            size: 1.0,
            start: 0.0,
        });
        for r in &ecmp(&net, &specs, &[]).flows {
            let c = r.completion.unwrap();
            assert!((1.0..=2.0 + 1e-9).contains(&c), "completion {c}");
        }
    }

    /// One core link fails mid-transfer, each in turn: the flow always
    /// finishes at full rate, moved to a spare core path when the failed
    /// link was on its own.
    #[test]
    fn link_failure_reroutes() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 10.0,
            start: 0.0,
        }];
        let mut rerouted = 0;
        for e in agg_core_links(&net) {
            let rep = ecmp(&net, &specs, &[TopoEvent::LinkDown(5.0, e)]);
            assert_eq!(rep.unfinished(), 0, "flow must survive the failure");
            assert_eq!(rep.flows[0].completion, Some(10.0));
            rerouted += rep.reroutes;
        }
        assert!(rerouted > 0, "no failure hit the flow's path");
    }

    /// Severs both core links of one aggregation switch, then restores
    /// them: the flow still completes.
    #[test]
    fn failure_and_repair_cycle() {
        let net = k4();
        let agg = net
            .switches()
            .find(|&v| net.kind(v) == ft_topo::DeviceKind::Aggregation)
            .unwrap();
        let severed: Vec<EdgeId> = agg_core_links(&net)
            .into_iter()
            .filter(|&e| {
                let (a, b) = net.graph().endpoints(e);
                a == agg || b == agg
            })
            .collect();
        assert_eq!(severed.len(), 2);
        let topo: Vec<TopoEvent> = severed
            .iter()
            .map(|&e| TopoEvent::LinkDown(1.0, e))
            .chain(severed.iter().map(|&e| TopoEvent::LinkUp(3.0, e)))
            .collect();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 10.0,
            start: 0.0,
        }];
        assert_eq!(ecmp(&net, &specs, &topo).unfinished(), 0);
    }

    #[test]
    fn ksp_policy_on_flat_tree_global_mode() {
        let ftree = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
        let net = ftree.materialize(&Mode::GlobalRandom).unwrap();
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..6)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[servers.len() - 1 - i],
                size: 1.0,
                start: 0.0,
            })
            .collect();
        let rep = DesSimulator::new(&net, RouterPolicy::Ksp(8))
            .run(&specs, &[], 1e9)
            .unwrap();
        assert_eq!(rep.unfinished(), 0);
        assert!(rep.makespan >= 1.0);
    }

    #[test]
    fn deterministic_repeat() {
        let net = k4();
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[(i + 5) % servers.len()],
                size: 1.0 + i as f64,
                start: 0.0,
            })
            .collect();
        let (r1, r2) = (ecmp(&net, &specs, &[]), ecmp(&net, &specs, &[]));
        for (a, b) in r1.flows.iter().zip(&r2.flows) {
            assert_eq!(
                a.completion.map(f64::to_bits),
                b.completion.map(f64::to_bits)
            );
        }
        assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        assert_eq!(r1.completion_checksum(), r2.completion_checksum());
    }

    #[test]
    fn uplink_failure_parks_flow() {
        let net = k4();
        let src = server(&net, 0);
        // the server's single uplink
        let uplink = net.graph().neighbors(src).next().unwrap().1;
        let specs = [FlowSpec {
            src,
            dst: server(&net, 8),
            size: 10.0,
            start: 0.0,
        }];
        let topo = [
            TopoEvent::LinkDown(2.0, uplink),
            TopoEvent::LinkUp(5.0, uplink),
        ];
        let rep = ecmp(&net, &specs, &topo);
        let r = &rep.flows[0];
        assert_eq!(rep.unfinished(), 0);
        // 2s of transfer, 3s parked, 8 more seconds of transfer
        assert!((r.completion.unwrap() - 13.0).abs() < 1e-9, "{r:?}");
        assert!((r.parked_time - 3.0).abs() < 1e-9, "{r:?}");
        assert!(r.reroutes >= 1);
    }

    /// Builds a k=4 flat-tree, plans Clos → global random graph, and
    /// returns (network, conversion event).
    fn conversion_fixture(latency: f64) -> (Network, ConversionEvent) {
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
        let net = ft.materialize(&Mode::Clos).unwrap();
        let from = ft.resolve(&Mode::Clos).unwrap();
        let to = ft.resolve(&Mode::GlobalRandom).unwrap();
        let plan = ft_control::plan_transition(&ft, &from, &to).unwrap();
        let ev = ConversionEvent::from_plan(3.0, latency, &plan, Some(RouterPolicy::Ksp(4)));
        (net, ev)
    }

    /// Pod-local traffic on a k = 8 fat-tree (one link-sharing component
    /// or more per Pod), a server-uplink failure and repair that parks
    /// that server's flows, then a conversion of Pods 0–3 to global-RG
    /// under KSP that merges their components while Pods 4–7 keep theirs.
    /// Pins the checksum, the re-allocation count and every flow's parked
    /// time, recorded from the allocator that re-solved every active flow
    /// on each re-allocation.
    #[test]
    fn pinned_pod_local_failure_and_conversion() {
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(8).unwrap()).unwrap();
        let net = ft.materialize(&Mode::Clos).unwrap();
        let half = [[PodMode::GlobalRandom; 4], [PodMode::Clos; 4]].concat();
        let plan = ft_control::plan_transition(
            &ft,
            &ft.resolve(&Mode::Clos).unwrap(),
            &ft.resolve(&Mode::Hybrid(half)).unwrap(),
        )
        .unwrap();
        let servers: Vec<NodeId> = net.servers().collect();
        assert_eq!(servers.len(), 128);
        // 16 servers per Pod, 4 per edge switch: offsets 4 and 9 land on
        // another edge switch of the same Pod
        let specs: Vec<FlowSpec> = (0..servers.len())
            .flat_map(|i| [4, 9].map(|off| (i, off)))
            .map(|(i, off)| FlowSpec {
                src: servers[i],
                dst: servers[i / 16 * 16 + (i % 16 + off) % 16],
                size: 1.0 + (i % 7) as f64 * 0.75,
                start: (i % 5) as f64 * 0.4,
            })
            .collect();
        let uplink = net.graph().neighbors(servers[5]).next().unwrap().1;
        let topo = [
            TopoEvent::LinkDown(1.0, uplink),
            TopoEvent::LinkUp(2.0, uplink),
            TopoEvent::Convert(ConversionEvent::from_plan(
                2.5,
                0.5,
                &plan,
                Some(RouterPolicy::Ksp(8)),
            )),
        ];
        let rep = ecmp(&net, &specs, &topo);
        assert_eq!(rep.unfinished(), 0);
        assert_eq!(rep.conversions, 1);
        // every flow's parked-time bits, folded FNV-style in flow order
        let parked = rep.flows.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, r| {
            (h ^ r.parked_time.to_bits()).wrapping_mul(0x100_0000_01b3)
        });
        let parked_for = |t: f64| {
            rep.flows
                .iter()
                .filter(|r| r.parked_time.to_bits() == t.to_bits())
                .map(|r| r.flow)
                .collect::<Vec<_>>()
        };
        // the failed uplink's server sends flows 10 and 11 and receives 2
        // and 25; they park through the failure and the drain
        assert_eq!(parked_for(1.5), [2, 10, 11, 25]);
        assert_eq!(parked_for(0.5).len(), 102);
        assert_eq!(parked_for(0.0).len(), 150);
        assert_eq!(parked, 0xd48a_c658_736b_b725);
        assert_eq!(rep.completion_checksum(), 0x8eaf_d614_f354_2a9a);
        assert_eq!(rep.reallocations, 192);
        assert_eq!(
            (rep.events, rep.reroutes, rep.conversion_reroutes),
            (643, 220, 212)
        );
    }

    #[test]
    fn conversion_reroutes_flows_and_completes() {
        let (net, ev) = conversion_fixture(0.5);
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[(i + servers.len() / 2) % servers.len()],
                size: 8.0,
                start: 0.0,
            })
            .collect();
        let rep = ecmp(&net, &specs, &[TopoEvent::Convert(ev)]);
        assert_eq!(rep.conversions, 1);
        assert!(rep.links_removed > 0, "{rep:?}");
        assert!(rep.links_added > 0, "{rep:?}");
        assert_eq!(rep.missing_links, 0);
        assert!(rep.conversion_reroutes > 0, "conversion must touch flows");
        assert_eq!(rep.unfinished(), 0, "flows must survive the conversion");
    }

    #[test]
    fn conversion_latency_delays_completion() {
        let (net, fast) = conversion_fixture(0.1);
        let (_, slow) = conversion_fixture(10.0);
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[(i + servers.len() / 2) % servers.len()],
                size: 8.0,
                start: 0.0,
            })
            .collect();
        let sim = DesSimulator::new(&net, RouterPolicy::Ecmp);
        let rep_fast = sim.run(&specs, &[TopoEvent::Convert(fast)], 1e9).unwrap();
        let rep_slow = sim.run(&specs, &[TopoEvent::Convert(slow)], 1e9).unwrap();
        assert!(
            rep_slow.makespan >= rep_fast.makespan,
            "slower converters cannot finish earlier: {} vs {}",
            rep_slow.makespan,
            rep_fast.makespan
        );
    }

    #[test]
    fn deterministic_repeat_with_conversion() {
        let (net, ev) = conversion_fixture(0.5);
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..10)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[(i + 7) % servers.len()],
                size: 2.0 + i as f64,
                start: 0.5 * i as f64,
            })
            .collect();
        let sim = DesSimulator::new(&net, RouterPolicy::Ecmp);
        let topo = [TopoEvent::Convert(ev)];
        let r1 = sim.run_traced(&specs, &topo, 1e9).unwrap();
        let r2 = sim.run_traced(&specs, &topo, 1e9).unwrap();
        assert_eq!(r1.completion_checksum(), r2.completion_checksum());
        assert_eq!(r1.trace, r2.trace);
        for (a, b) in r1.flows.iter().zip(&r2.flows) {
            assert_eq!(
                a.completion.map(f64::to_bits),
                b.completion.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn trace_lines_are_json_objects() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 1.0,
            start: 0.0,
        }];
        let rep = DesSimulator::new(&net, RouterPolicy::Ecmp)
            .run_traced(&specs, &[], 1e9)
            .unwrap();
        let trace = rep.trace.unwrap();
        assert!(!trace.is_empty());
        for line in &trace {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":"), "{line}");
        }
    }

    #[test]
    fn horizon_truncates() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 100.0,
            start: 0.0,
        }];
        let rep = DesSimulator::new(&net, RouterPolicy::Ecmp)
            .run(&specs, &[], 5.0)
            .unwrap();
        assert_eq!(rep.unfinished(), 1);
        assert!(rep.truncated);
        assert_eq!(rep.makespan, 5.0);
    }

    #[test]
    fn nan_seed_rejected() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 1.0,
            start: f64::NAN,
        }];
        let err = DesSimulator::new(&net, RouterPolicy::Ecmp)
            .run(&specs, &[], 1e9)
            .unwrap_err();
        assert_eq!(err, DesError::Seed(ScheduleError::NotANumber));
    }

    #[test]
    fn bad_capacity_is_a_typed_error() {
        let net = k4();
        for bad in [0.0, -1.0, f64::INFINITY] {
            let err = DesSimulator::new(&net, RouterPolicy::Ecmp)
                .with_capacity(bad)
                .err();
            assert_eq!(err, Some(DesError::InvalidCapacity(bad)));
        }
        let err = DesSimulator::new(&net, RouterPolicy::Ecmp)
            .with_capacity(f64::NAN)
            .err();
        assert!(matches!(err, Some(DesError::InvalidCapacity(c)) if c.is_nan()));
        assert!(DesSimulator::new(&net, RouterPolicy::Ecmp)
            .with_capacity(2.5)
            .is_ok());
    }
}
