//! The resident query service: worker pool, in-process transport, request
//! dispatch.
//!
//! [`Service::run`] boots a [`ft_control::Controller`] once, spawns a fixed
//! pool of crossbeam scoped workers fed by a bounded MPMC channel, and
//! hands the caller a [`Handle`] — the in-process transport. Integration
//! tests, the CLI and the TCP listener all funnel through
//! [`Handle::request`], so every transport shares admission control,
//! caching and metrics.
//!
//! Shutdown protocol: a `shutdown` request (or the end of the caller's
//! closure) flips the draining flag — new requests are rejected with
//! `ERR shutdown` — then in-flight work is drained, bounded by the request
//! deadline; the worker handling the shutdown helps drain the queue rather
//! than spinning. Workers exit when the job channel disconnects and are
//! joined by the scope; [`Service::run`] then renders the final metrics
//! report.

use crate::cache::{CacheKey, LruCache, Materialized, PathsAnswer};
use crate::error::ServeError;
use crate::metrics::{MetricsRegistry, Snapshot};
use crate::proto::{self, layout_letters, ModeSpec, Request};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use ft_control::Controller;
use ft_core::{FlatTreeConfig, Mode};
use ft_mcf::aggregate_commodities;
use ft_metrics::path_length::{
    average_intra_pod_path_length_with, average_server_path_length_with, SwitchDistances,
};
use ft_metrics::throughput::{throughput_on_commodities, SolverKind, ThroughputOptions};
use ft_workload::{generate, WorkloadSpec};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static configuration for one service instance.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Fat-tree parameter of the flat-tree under management (even, ≥ 4).
    pub k: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Maximum cached materializations (LRU beyond that).
    pub cache_capacity: usize,
    /// Bounded job-queue depth; requests beyond it get `ERR busy`.
    pub queue_depth: usize,
    /// Length of one sliding-window epoch in milliseconds; the windowed
    /// latency quantiles cover the last [`ft_obs::WINDOW_EPOCHS`] of
    /// these. 0 disables ticking, freezing the window as a mirror of the
    /// cumulative histograms.
    pub window_epoch_ms: u64,
}

impl ServeConfig {
    /// Defaults for a given fat-tree parameter: 4 workers, 8 cache slots,
    /// a 64-deep admission queue, 1 s window epochs (an 8 s sliding
    /// window for the stats-line quantiles).
    pub fn for_k(k: usize) -> Self {
        ServeConfig {
            k,
            workers: 4,
            cache_capacity: 8,
            queue_depth: 64,
            window_epoch_ms: 1000,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 || self.workers > 256 {
            return Err(ServeError::BadRequest(format!(
                "workers must be in 1..=256, got {}",
                self.workers
            )));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::BadRequest(
                "queue_depth must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// One queued request plus its reply slot.
pub(crate) struct Job {
    line: String,
    reply: Sender<String>,
}

/// State shared by every worker, transport and the caller's closure.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    /// Pods in the managed network (cached off the controller config).
    pub(crate) pods: usize,
    /// Servers per Pod (intra-Pod fallback grouping for path metrics).
    pub(crate) servers_per_pod: usize,
    pub(crate) controller: RwLock<Controller>,
    pub(crate) cache: Mutex<LruCache>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) shutting_down: AtomicBool,
    /// Admitted requests not yet replied to (queued + executing).
    pub(crate) pending: AtomicU64,
    pub(crate) started: Instant,
}

/// The in-process transport: issue FTQ/1 request lines, get reply lines.
///
/// Cheap to share (`&Handle` is `Sync`); every transport — tests, the CLI,
/// TCP connections — goes through [`Handle::request`].
pub struct Handle<'a> {
    tx: Sender<Job>,
    shared: &'a Shared,
}

impl Handle<'_> {
    /// Submits one FTQ/1 request line and blocks for the reply.
    ///
    /// Never panics: malformed input, full queues and draining states all
    /// come back as `ERR <code> <msg>`. Replies are a single line except
    /// for `metrics`, whose `OK metrics lines=<n>` header is followed by
    /// `n` exposition lines (the protocol's one documented multi-line
    /// reply).
    pub fn request(&self, line: &str) -> String {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            self.shared.metrics.record_shutdown_rejection();
            return ServeError::ShuttingDown.err_line();
        }
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let job = Job {
            line: line.to_string(),
            reply: reply_tx,
        };
        match self.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                self.shared.metrics.record_busy();
                return ServeError::Busy {
                    depth: self.shared.cfg.queue_depth,
                }
                .err_line();
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                self.shared.metrics.record_shutdown_rejection();
                return ServeError::ShuttingDown.err_line();
            }
        }
        match reply_rx.recv() {
            Ok(reply) => reply,
            Err(_) => ServeError::Internal("worker dropped the request".to_string()).err_line(),
        }
    }

    /// Whether a shutdown has been initiated (drain in progress or done).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// A point-in-time copy of the metrics registry — the structured
    /// counterpart of the `stats` request, for assertions and dashboards.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.metrics.snapshot()
    }
}

/// The query service. See the module docs for the lifecycle.
pub struct Service;

impl Service {
    /// Boots the service, runs `f` with the in-process [`Handle`], then
    /// drains and joins the worker pool.
    ///
    /// Returns `f`'s result plus the final multi-line metrics report (the
    /// "dump on shutdown").
    ///
    /// # Errors
    /// Configuration and construction failures ([`ServeError::BadRequest`],
    /// [`ServeError::Engine`]); [`ServeError::Internal`] if a worker died.
    pub fn run<R, F>(cfg: ServeConfig, f: F) -> Result<(R, String), ServeError>
    where
        F: FnOnce(&Handle<'_>) -> R,
    {
        cfg.validate()?;
        let ft_cfg = FlatTreeConfig::for_fat_tree_k(cfg.k)?;
        let controller = Controller::new(ft_cfg)?;
        let clos = controller.flat_tree().config().clos;
        let shared = Shared {
            cfg,
            pods: clos.pods,
            servers_per_pod: clos.d * clos.servers_per_edge,
            controller: RwLock::new(controller),
            cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            metrics: MetricsRegistry::new(),
            shutting_down: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            started: Instant::now(),
        };
        let (tx, rx) = channel::bounded::<Job>(cfg.queue_depth);
        let sh = &shared;
        let scope_result = crossbeam::scope(move |s| {
            for _ in 0..sh.cfg.workers {
                let rx = rx.clone();
                s.spawn(move |_| worker_loop(sh, &rx));
            }
            drop(rx);
            let handle = Handle { tx, shared: sh };
            let out = f(&handle);
            // Idempotent with a shutdown request: just stop admitting.
            sh.shutting_down.store(true, Ordering::SeqCst);
            drop(handle); // last Sender → workers drain the queue and exit
            out
        });
        let out =
            scope_result.map_err(|_| ServeError::Internal("a worker thread died".to_string()))?;
        let report = shared
            .metrics
            .snapshot()
            .render_report(shared.started.elapsed());
        Ok((out, report))
    }
}

fn worker_loop(shared: &Shared, rx: &Receiver<Job>) {
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(job) => run_job(shared, rx, job),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if ft_obs::enabled() {
        // Drain this worker's span buffer before the pool scope joins: the
        // TLS destructor only runs at actual thread exit, which can land
        // after the caller removes the trace sink.
        ft_obs::flush();
    }
}

fn run_job(shared: &Shared, rx: &Receiver<Job>, job: Job) {
    let reply = execute(shared, Some(rx), &job.line);
    let _ = job.reply.send(reply);
    shared.pending.fetch_sub(1, Ordering::SeqCst);
}

/// Parses, dispatches and renders one request line into one reply line,
/// recording metrics along the way. `rx` lets the shutdown handler help
/// drain the queue; transports without queue access pass `None`.
pub(crate) fn execute(shared: &Shared, rx: Option<&Receiver<Job>>, line: &str) -> String {
    let req = match proto::parse(line) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.record_unparsed();
            return e.err_line();
        }
    };
    let verb = req.verb();
    let start = Instant::now();
    let result = {
        let _span = ft_obs::span!("serve.request", verb = verb);
        dispatch(shared, rx, &req)
    };
    let latency = start.elapsed();
    // Advance the sliding windows off the request path's own clock reads;
    // the registry's WindowClock elects one caller per epoch boundary.
    let now_us = u64::try_from(shared.started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared
        .metrics
        .maybe_tick(now_us, shared.cfg.window_epoch_ms.saturating_mul(1000));
    match result {
        Ok(payload) => {
            shared.metrics.record(verb, latency, true);
            format!("OK {verb} {payload}")
        }
        Err(e) => {
            shared.metrics.record(verb, latency, false);
            e.err_line()
        }
    }
}

fn dispatch(
    shared: &Shared,
    rx: Option<&Receiver<Job>>,
    req: &Request,
) -> Result<String, ServeError> {
    match req {
        Request::Topo { mode } => exec_topo(shared, mode.as_ref()),
        Request::Paths { mode } => exec_paths(shared, mode.as_ref()),
        Request::Throughput {
            mode,
            epsilon,
            pattern,
            cluster,
            locality,
            seed,
            solver,
        } => exec_throughput(
            shared,
            mode.as_ref(),
            *epsilon,
            *pattern,
            *cluster,
            *locality,
            *seed,
            *solver,
        ),
        Request::Plan { to } => exec_plan(shared, to),
        Request::Convert { to } => exec_convert(shared, to),
        Request::Stats => Ok(shared.metrics.snapshot().stats_line()),
        Request::Metrics => Ok(exec_metrics(shared)),
        Request::Shutdown { deadline_ms } => exec_shutdown(shared, rx, *deadline_ms),
    }
}

/// Resolves a mode spec (or the current layout), returning the cache entry
/// for it — filling the cache on miss. The bool is `true` on a cache hit.
fn entry_for(
    shared: &Shared,
    spec: Option<&ModeSpec>,
) -> Result<(Mode, String, Arc<Materialized>, bool), ServeError> {
    let mode: Mode = match spec {
        Some(s) => s.to_mode(shared.pods)?,
        None => shared.controller.read().mode().clone(),
    };
    let layout = layout_letters(&mode, shared.pods);
    let key = CacheKey {
        k: shared.cfg.k,
        layout: layout.clone(),
    };
    if let Some(entry) = shared.cache.lock().get(&key) {
        shared.metrics.record_cache_hit();
        return Ok((mode, layout, entry, true));
    }
    shared.metrics.record_cache_miss();
    let _span = ft_obs::span!("serve.materialize", k = shared.cfg.k);
    let network = shared.controller.read().flat_tree().materialize(&mode)?;
    shared.metrics.record_materialization();
    let entry = Arc::new(Materialized::new(network));
    shared.cache.lock().insert(key, Arc::clone(&entry));
    Ok((mode, layout, entry, false))
}

fn source(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

fn exec_topo(shared: &Shared, spec: Option<&ModeSpec>) -> Result<String, ServeError> {
    let (mode, layout, entry, hit) = entry_for(shared, spec)?;
    let eq = entry.network.equipment();
    Ok(format!(
        "layout={layout} mode={} switches={} servers={} links={} source={}",
        mode.label(),
        eq.switches,
        eq.servers,
        eq.links,
        source(hit)
    ))
}

fn exec_paths(shared: &Shared, spec: Option<&ModeSpec>) -> Result<String, ServeError> {
    let (mode, layout, entry, hit) = entry_for(shared, spec)?;
    let (ans, cached_answer) = {
        let mut slot = entry.paths.lock();
        match *slot {
            Some(a) => (a, true),
            None => {
                // one multi-source BFS table per fill, read by both metrics
                // through the *_with variants and dropped once the answer
                // is cached — time the whole fill for the fill-latency
                // histogram
                let t0 = std::time::Instant::now();
                let _span = ft_obs::span!("serve.path_fill", k = shared.cfg.k);
                let dist = SwitchDistances::compute(&entry.network);
                let a = PathsAnswer {
                    apl: average_server_path_length_with(&entry.network, &dist),
                    intra: average_intra_pod_path_length_with(
                        &entry.network,
                        shared.servers_per_pod,
                        &dist,
                    ),
                };
                shared.metrics.record_path_computation(t0.elapsed());
                *slot = Some(a);
                (a, false)
            }
        }
    };
    Ok(format!(
        "layout={layout} mode={} apl={:.4} intra={:.4} source={} cached_answer={cached_answer}",
        mode.label(),
        ans.apl,
        ans.intra,
        source(hit)
    ))
}

#[allow(clippy::too_many_arguments)] // mirrors the request's argument list
fn exec_throughput(
    shared: &Shared,
    spec: Option<&ModeSpec>,
    epsilon: f64,
    pattern: ft_workload::TrafficPattern,
    cluster: usize,
    locality: ft_workload::Locality,
    seed: u64,
    solver: SolverKind,
) -> Result<String, ServeError> {
    let (_, layout, entry, hit) = entry_for(shared, spec)?;
    let wl = WorkloadSpec {
        pattern,
        cluster_size: cluster,
        locality,
    };
    let tm = generate(&entry.network, &wl, seed);
    let commodities = aggregate_commodities(tm.switch_triples(&entry.network));
    let r = throughput_on_commodities(
        &entry.network,
        &commodities,
        ThroughputOptions::fptas_with(epsilon, solver),
    )?;
    let solver_name = match solver {
        SolverKind::Batched => "batched",
        SolverKind::Aggregated => "aggregated",
    };
    // budget_exhausted, upper_bound and stop are part of the reply
    // contract: λ from a truncated FPTAS run is a lower bound, and clients
    // must be able to tell how close to the optimum it is certified.
    Ok(format!(
        "layout={layout} eps={epsilon} solver={solver_name} lambda={:.6} commodities={} \
         aggregated={} exact={} budget_exhausted={} source={} upper_bound={:.6} stop={}",
        r.lambda,
        r.commodities,
        r.aggregated.unwrap_or(0),
        r.exact,
        r.budget_exhausted,
        source(hit),
        r.upper_bound,
        r.stop.label()
    ))
}

fn exec_plan(shared: &Shared, to: &ModeSpec) -> Result<String, ServeError> {
    let to_mode = to.to_mode(shared.pods)?;
    let controller = shared.controller.read();
    let from_layout = layout_letters(controller.mode(), shared.pods);
    let plan = controller.plan(&to_mode)?;
    Ok(format!(
        "from={from_layout} to={} ops={} four={} six={} links_removed={} links_added={}",
        layout_letters(&to_mode, shared.pods),
        plan.converter_ops(),
        plan.four_changes.len(),
        plan.six_changes.len(),
        plan.links_removed.len(),
        plan.links_added.len()
    ))
}

fn exec_convert(shared: &Shared, to: &ModeSpec) -> Result<String, ServeError> {
    let to_mode = to.to_mode(shared.pods)?;
    let (from_layout, plan, conversions) = {
        let mut controller = shared.controller.write();
        let from_layout = layout_letters(controller.mode(), shared.pods);
        let plan = controller.convert(to_mode.clone())?;
        (from_layout, plan, controller.conversions())
    };
    if !plan.is_noop() {
        // The physical baseline changed: every cached layout is stale.
        shared.cache.lock().clear();
        shared.metrics.record_conversion();
    }
    Ok(format!(
        "from={from_layout} to={} ops={} links_removed={} links_added={} noop={} conversions={conversions}",
        layout_letters(&to_mode, shared.pods),
        plan.converter_ops(),
        plan.links_removed.len(),
        plan.links_added.len(),
        plan.is_noop()
    ))
}

/// Renders the `metrics` payload: an `lines=<n>` header token followed by
/// `n` Prometheus-style exposition lines — the service's own `ft_serve_*`
/// counters first, then the process-global ft-obs registry (solver, pool,
/// APSP and span-sink metrics), so one reply covers the whole stack.
fn exec_metrics(shared: &Shared) -> String {
    let mut body = shared.metrics.snapshot().exposition();
    body.push_str(&ft_obs::registry::expose());
    let n = body.lines().count();
    // The body is newline-terminated; the header token rides on the OK
    // line, so strip the trailing newline to avoid a blank last line.
    let trimmed = body.trim_end_matches('\n');
    format!("lines={n}\n{trimmed}")
}

fn exec_shutdown(
    shared: &Shared,
    rx: Option<&Receiver<Job>>,
    deadline_ms: u64,
) -> Result<String, ServeError> {
    if shared
        .shutting_down
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Err(ServeError::ShuttingDown);
    }
    let start = Instant::now();
    let deadline = Duration::from_millis(deadline_ms);
    // Drain everything admitted before the flag flipped; this request
    // itself accounts for one pending slot.
    while shared.pending.load(Ordering::SeqCst) > 1 {
        if start.elapsed() > deadline {
            return Err(ServeError::Timeout {
                waited_ms: deadline_ms,
            });
        }
        match rx.map(|r| r.try_recv()) {
            Some(Ok(job)) => {
                // Help drain instead of occupying a pool slot idly. A
                // queued `shutdown` resolves to ERR shutdown (flag is set).
                if let Some(r) = rx {
                    run_job(shared, r, job);
                }
            }
            _ => std::thread::sleep(Duration::from_micros(200)),
        }
    }
    Ok(format!(
        "drained=true waited_ms={}",
        start.elapsed().as_millis()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig::for_k(4)
    }

    #[test]
    fn serves_basic_requests_in_process() {
        let (replies, report) = Service::run(cfg(), |h| {
            vec![
                h.request("topo"),
                h.request("paths"),
                h.request("stats"),
                h.request("nonsense"),
            ]
        })
        .unwrap();
        assert!(replies[0].starts_with("OK topo "), "{}", replies[0]);
        assert!(replies[0].contains("switches=20"), "{}", replies[0]);
        assert!(replies[1].starts_with("OK paths "), "{}", replies[1]);
        assert!(replies[1].contains("apl="), "{}", replies[1]);
        assert!(replies[2].starts_with("OK stats "), "{}", replies[2]);
        assert!(
            replies[3].starts_with("ERR unknown-verb "),
            "{}",
            replies[3]
        );
        assert!(report.contains("ft-serve final report"), "{report}");
    }

    #[test]
    fn repeated_paths_hits_cache() {
        let ((first, second, snap), _) = Service::run(cfg(), |h| {
            let first = h.request("paths mode=global-rg");
            let second = h.request("paths mode=global-rg");
            (first, second, h.snapshot())
        })
        .unwrap();
        assert!(first.contains("source=miss"), "{first}");
        assert!(first.contains("cached_answer=false"), "{first}");
        assert!(second.contains("source=hit"), "{second}");
        assert!(second.contains("cached_answer=true"), "{second}");
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.materializations, 1, "hit must not re-materialize");
        assert_eq!(snap.path_computations, 1);
    }

    #[test]
    fn convert_applies_and_invalidates() {
        let (replies, _) = Service::run(cfg(), |h| {
            vec![
                h.request("paths"),
                h.request("convert to=global-rg"),
                h.request("paths"),
                h.request("convert to=global-rg"), // noop now
            ]
        })
        .unwrap();
        assert!(replies[1].contains("noop=false"), "{}", replies[1]);
        assert!(replies[1].contains("conversions=1"), "{}", replies[1]);
        assert_ne!(replies[0], replies[2], "layout change must change paths");
        assert!(replies[3].contains("noop=true"), "{}", replies[3]);
    }

    #[test]
    fn plan_does_not_mutate() {
        let (replies, _) = Service::run(cfg(), |h| {
            vec![h.request("plan to=local-rg"), h.request("topo")]
        })
        .unwrap();
        assert!(replies[0].starts_with("OK plan "), "{}", replies[0]);
        assert!(replies[0].contains("from=cccc"), "{}", replies[0]);
        assert!(replies[1].contains("mode=clos"), "{}", replies[1]);
    }

    #[test]
    fn shutdown_drains_and_rejects() {
        let (replies, _) = Service::run(cfg(), |h| {
            let ok = h.request("shutdown deadline_ms=2000");
            let rejected = h.request("topo");
            (ok, rejected)
        })
        .unwrap();
        assert!(
            replies.0.starts_with("OK shutdown drained=true"),
            "{}",
            replies.0
        );
        assert!(replies.1.starts_with("ERR shutdown "), "{}", replies.1);
    }

    #[test]
    fn double_shutdown_is_an_error() {
        let ((first, second), _) =
            Service::run(cfg(), |h| (h.request("shutdown"), h.request("shutdown"))).unwrap();
        assert!(first.starts_with("OK shutdown "), "{first}");
        assert!(second.starts_with("ERR shutdown "), "{second}");
    }

    #[test]
    fn bad_config_rejected() {
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::for_k(4)
        };
        assert!(Service::run(cfg, |_| ()).is_err());
        assert!(Service::run(ServeConfig::for_k(5), |_| ()).is_err());
    }

    #[test]
    fn metrics_verb_exposes_counters() {
        let (reply, _) = Service::run(cfg(), |h| {
            h.request("paths");
            h.request("metrics")
        })
        .unwrap();
        let mut lines = reply.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("OK metrics lines="), "{header}");
        let n: usize = header
            .trim_start_matches("OK metrics lines=")
            .parse()
            .unwrap();
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), n, "header line count must match body");
        assert!(n > 0);
        // Serve metrics, and (via the global registry) pool + APSP metrics
        // from the paths request's BFS fan-out, are all present.
        let text = body.join("\n");
        assert!(
            text.contains("ft_serve_requests_total{verb=\"paths\"} 1"),
            "{text}"
        );
        assert!(text.contains("ft_serve_cache_misses_total 1"), "{text}");
        assert!(text.contains("ft_metrics_apsp_total"), "{text}");
        assert!(text.contains("ft_par_"), "{text}");
        for line in &body {
            let (name, value) = line.rsplit_once(' ').unwrap();
            assert!(!name.is_empty());
            assert!(value.parse::<u64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn throughput_answers_with_lambda() {
        let (reply, _) = Service::run(cfg(), |h| {
            h.request("throughput eps=0.3 cluster=8 pattern=all-to-all seed=2")
        })
        .unwrap();
        assert!(reply.starts_with("OK throughput "), "{reply}");
        assert!(reply.contains("lambda="), "{reply}");
        assert!(reply.contains("eps=0.3"), "{reply}");
        assert!(reply.contains("solver=batched"), "{reply}");
        // an unbounded FPTAS run converges, and the reply must say so
        assert!(reply.contains("budget_exhausted=false"), "{reply}");
        // with the certified bound and the stop reason after the old tokens
        let field = |key: &str| {
            reply
                .split_whitespace()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("no {key} in {reply}"))
        };
        let lambda: f64 = field("lambda").parse().unwrap();
        let upper: f64 = field("upper_bound").parse().unwrap();
        assert!(lambda <= upper, "{reply}");
        assert!(["gap", "dual"].contains(&field("stop")), "{reply}");
        // appended after the old tokens, so key-reading clients keep working
        let tail = &reply[reply.find(" source=").unwrap()..];
        assert!(
            tail.contains(" upper_bound=") && tail.contains(" stop="),
            "{reply}"
        );
    }

    #[test]
    fn throughput_hotspot_is_exact_only_as_one_cluster() {
        let field = |reply: &str, key: &str| {
            let v = reply
                .split_whitespace()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('='));
            v.unwrap_or_else(|| panic!("no {key} in {reply}"))
                .to_string()
        };
        // one 1000-server cluster spans the k = 4 fabric: a star, solved
        // exactly by max-flow
        let (reply, _) = Service::run(cfg(), |h| {
            h.request("throughput pattern=hotspot cluster=1000 seed=2")
        })
        .unwrap();
        assert_eq!(field(&reply, "exact"), "true", "{reply}");
        assert_eq!(field(&reply, "stop"), "gap", "{reply}");
        let lambda: f64 = field(&reply, "lambda").parse().unwrap();
        let upper: f64 = field(&reply, "upper_bound").parse().unwrap();
        assert!(lambda > 0.0 && (upper - lambda).abs() <= 1e-6, "{reply}");
        // the default 16-server clusters put 8 hot spots on k = 8: the
        // FPTAS solves them
        let (reply, _) = Service::run(ServeConfig::for_k(8), |h| {
            h.request("throughput pattern=hotspot eps=0.3 seed=2")
        })
        .unwrap();
        assert!(reply.starts_with("OK throughput "), "{reply}");
        assert_eq!(field(&reply, "exact"), "false", "{reply}");
    }

    #[test]
    fn throughput_aggregated_solver_engages_and_exposes_gauge() {
        let ((reply, metrics), _) = Service::run(cfg(), |h| {
            // cluster=16 spans every server of the k = 4 network: the demand
            // matrix is uniform all-to-all, so the orbit closure holds.
            let reply = h.request("throughput eps=0.3 cluster=16 solver=aggregated seed=2");
            (reply, h.request("metrics"))
        })
        .unwrap();
        assert!(reply.starts_with("OK throughput "), "{reply}");
        assert!(reply.contains("solver=aggregated"), "{reply}");
        // k = 4 Clos is symmetric: the orbit count must be a real collapse,
        // not the aggregated=0 identity fallback.
        let collapsed: usize = reply
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("aggregated="))
            .unwrap()
            .parse()
            .unwrap();
        let full: usize = reply
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("commodities="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(collapsed > 0, "{reply}");
        assert!(collapsed < full, "{reply}");
        // The orbit-count gauge reaches the wire via the metrics verb.
        assert!(
            metrics.contains("ft_mcf_aggregated_commodities"),
            "{metrics}"
        );
        assert!(
            metrics.contains("ft_mcf_aggregated_runs_total"),
            "{metrics}"
        );
    }
}
