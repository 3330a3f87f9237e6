//! Request metrics: per-verb counters, latency histograms, cache and
//! engine counters — built on the [`ft_obs`] metric primitives (PR 5
//! absorbed the ad-hoc atomics this module used to carry).
//!
//! Everything is lock-free (relaxed `AtomicU64` inside
//! [`ft_obs::Counter`]/[`ft_obs::Histogram`]) so recording never contends
//! with the worker pool. Latencies land in power-of-two microsecond
//! buckets: bucket `i` covers `[2^(i−1), 2^i)` µs (bucket 0 is `< 1 µs`),
//! which is plenty of resolution to tell a cache hit from a BFS re-run.
//! Quantiles (p50/p95/p99) are derived through the shared
//! [`ft_obs::quantile_lower_bound`] helper — the same one the exposition
//! format uses — and report the lower bound of the crossing bucket.
//!
//! Every latency histogram is recorded twice: into a cumulative
//! [`ft_obs::Histogram`] (exposed as before) and into a sliding
//! [`ft_obs::WindowedHistogram`] covering the last
//! [`ft_obs::WINDOW_EPOCHS`] epochs. The `stats` line and the shutdown
//! report quote the *windowed* quantiles — a p95 that recovers when the
//! service does, which is what the roadmap's admission-control work needs
//! — while the exposition keeps both (`…_us` cumulative, `…_us_window`
//! windowed). Epochs advance via [`MetricsRegistry::maybe_tick`], driven
//! by the request path; until the first tick the window holds everything
//! ever recorded, so short-lived instances see windowed == cumulative.

use ft_obs::registry::expose_histogram;
use ft_obs::{
    Counter, Histogram, HistogramSnapshot, WindowClock, WindowedHistogram, MIN_WINDOW_SAMPLES,
};
use std::time::Duration;

/// Number of latency buckets (re-exported from ft-obs; bucket 21 tops out
/// at ~2 s, slower requests saturate into it).
pub const BUCKETS: usize = ft_obs::BUCKETS;

/// The request kinds the registry tracks, in wire-verb order.
pub const KINDS: [&str; 8] = [
    "topo",
    "paths",
    "throughput",
    "plan",
    "convert",
    "stats",
    "metrics",
    "shutdown",
];

fn kind_index(verb: &str) -> Option<usize> {
    KINDS.iter().position(|&k| k == verb)
}

#[derive(Default)]
struct KindStats {
    requests: Counter,
    errors: Counter,
    latency: Histogram,
    /// Same samples as `latency`, over the sliding window only.
    window: WindowedHistogram,
}

/// The service-wide metrics registry.
#[derive(Default)]
pub struct MetricsRegistry {
    kinds: [KindStats; KINDS.len()],
    /// Requests that failed before a verb was known (parse errors).
    unparsed_errors: Counter,
    /// Requests rejected because the job queue was full.
    rejected_busy: Counter,
    /// Requests rejected because the service was draining.
    rejected_shutdown: Counter,
    /// Materialization-cache hits.
    cache_hits: Counter,
    /// Materialization-cache misses (entry had to be built).
    cache_misses: Counter,
    /// Networks materialized to fill the cache.
    materializations: Counter,
    /// Latency histogram of batched-BFS cache-entry fills (its sample
    /// count doubles as the path-computation counter). The fill runs the
    /// parallel BFS-APSP kernel, so this is the service's direct view of
    /// the hot-path kernel's latency.
    path_fill: Histogram,
    /// Same fill samples as `path_fill`, over the sliding window only.
    path_fill_window: WindowedHistogram,
    /// Elects which caller advances the window epochs (the relaxed
    /// tick-election atomic lives in ft-obs by lint policy).
    clock: WindowClock,
    /// Conversions applied by `convert` requests.
    conversions: Counter,
    /// Whole-cache invalidations triggered by conversions.
    invalidations: Counter,
}

impl MetricsRegistry {
    /// A fresh, all-zero registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records a completed request of `verb` with its latency; `ok` is
    /// false when the reply was an `ERR`.
    pub fn record(&self, verb: &str, latency: Duration, ok: bool) {
        let Some(i) = kind_index(verb) else {
            self.unparsed_errors.incr();
            return;
        };
        let k = &self.kinds[i];
        k.requests.incr();
        if !ok {
            k.errors.incr();
        }
        k.latency.record(latency);
        k.window.record(latency);
    }

    /// Advances the sliding windows when at least one epoch of
    /// `epoch_us` has elapsed at monotonic time `now_us`. The embedded
    /// [`WindowClock`] elects exactly one caller per boundary, so the
    /// request path can call this unconditionally; `epoch_us == 0`
    /// disables ticking (the window then just mirrors the cumulative
    /// histograms).
    pub fn maybe_tick(&self, now_us: u64, epoch_us: u64) {
        let due = self.clock.due_epochs(now_us, epoch_us);
        for _ in 0..due {
            for k in &self.kinds {
                k.window.tick();
            }
            self.path_fill_window.tick();
        }
    }

    /// Counts a request that failed to parse (no verb attributable).
    pub fn record_unparsed(&self) {
        self.unparsed_errors.incr();
    }

    /// Counts a queue-full rejection.
    pub fn record_busy(&self) {
        self.rejected_busy.incr();
    }

    /// Counts a rejected-because-draining request.
    pub fn record_shutdown_rejection(&self) {
        self.rejected_shutdown.incr();
    }

    /// Counts a materialization-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.incr();
    }

    /// Counts a materialization-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.incr();
    }

    /// Counts one network materialization (cache fill).
    pub fn record_materialization(&self) {
        self.materializations.incr();
    }

    /// Records one batched-BFS path-length computation (cache-entry fill)
    /// and the time the parallel APSP kernel took.
    pub fn record_path_computation(&self, latency: Duration) {
        self.path_fill.record(latency);
        self.path_fill_window.record(latency);
    }

    /// Counts an applied conversion and the cache invalidation it forced.
    pub fn record_conversion(&self) {
        self.conversions.incr();
        self.invalidations.incr();
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> Snapshot {
        let kinds = self
            .kinds
            .iter()
            .enumerate()
            .map(|(i, k)| KindSnapshot {
                verb: KINDS[i],
                requests: k.requests.get(),
                errors: k.errors.get(),
                latency: k.latency.snapshot(),
                window: k.window.snapshot(),
            })
            .collect();
        let path_fill = self.path_fill.snapshot();
        Snapshot {
            kinds,
            unparsed_errors: self.unparsed_errors.get(),
            rejected_busy: self.rejected_busy.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            materializations: self.materializations.get(),
            path_computations: path_fill.count,
            path_fill,
            path_fill_window: self.path_fill_window.snapshot(),
            conversions: self.conversions.get(),
            invalidations: self.invalidations.get(),
        }
    }
}

/// Counters for one request kind at snapshot time.
#[derive(Clone, Debug)]
pub struct KindSnapshot {
    /// The wire verb.
    pub verb: &'static str,
    /// Requests completed (OK or ERR).
    pub requests: u64,
    /// Of those, ERR replies.
    pub errors: u64,
    /// Latency histogram (power-of-two µs buckets, count and µs sum).
    pub latency: HistogramSnapshot,
    /// The same latencies restricted to the sliding window; equal to
    /// `latency` until the first epoch tick.
    pub window: HistogramSnapshot,
}

impl KindSnapshot {
    /// Approximate p50 latency in µs: the lower bound of the bucket that
    /// crosses half the mass (0 when no requests were recorded).
    pub fn p50_us(&self) -> u64 {
        self.latency.p50_us()
    }

    /// Approximate p95 latency in µs (same bucket-resolution caveat).
    pub fn p95_us(&self) -> u64 {
        self.latency.p95_us()
    }

    /// Approximate p99 latency in µs (same bucket-resolution caveat).
    pub fn p99_us(&self) -> u64 {
        self.latency.p99_us()
    }

    /// True when the sliding window holds at least one sample but fewer
    /// than [`MIN_WINDOW_SAMPLES`] — its quantiles are then quoted with a
    /// low-confidence marker.
    pub fn window_low(&self) -> bool {
        self.window.count > 0 && self.window.count < MIN_WINDOW_SAMPLES
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Per-kind stats, in [`KINDS`] order.
    pub kinds: Vec<KindSnapshot>,
    /// Requests that failed before a verb was known.
    pub unparsed_errors: u64,
    /// Queue-full rejections.
    pub rejected_busy: u64,
    /// Draining rejections.
    pub rejected_shutdown: u64,
    /// Materialization-cache hits.
    pub cache_hits: u64,
    /// Materialization-cache misses.
    pub cache_misses: u64,
    /// Networks materialized to fill the cache.
    pub materializations: u64,
    /// Batched-BFS path-length computations (the fill histogram's count).
    pub path_computations: u64,
    /// Cache-fill latency histogram.
    pub path_fill: HistogramSnapshot,
    /// Cache-fill latencies restricted to the sliding window.
    pub path_fill_window: HistogramSnapshot,
    /// Conversions applied.
    pub conversions: u64,
    /// Cache invalidations.
    pub invalidations: u64,
}

impl Snapshot {
    /// Approximate p50 cache-fill latency in µs (bucket lower bound).
    pub fn path_fill_p50_us(&self) -> u64 {
        self.path_fill.p50_us()
    }

    /// Approximate p95 cache-fill latency in µs (bucket lower bound).
    pub fn path_fill_p95_us(&self) -> u64 {
        self.path_fill.p95_us()
    }

    /// Approximate p99 cache-fill latency in µs (bucket lower bound).
    pub fn path_fill_p99_us(&self) -> u64 {
        self.path_fill.p99_us()
    }

    /// Total completed requests across all kinds.
    pub fn total_requests(&self) -> u64 {
        self.kinds.iter().map(|k| k.requests).sum()
    }

    /// Total ERR replies across all kinds (parse failures included).
    pub fn total_errors(&self) -> u64 {
        self.kinds.iter().map(|k| k.errors).sum::<u64>() + self.unparsed_errors
    }

    /// The single-line `OK stats …` payload (everything `key=value`).
    pub fn stats_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "proto=FTQ/1 total={} errors={} busy={} draining_rejects={} \
             cache_hits={} cache_misses={} materializations={} path_computations={} \
             conversions={} invalidations={}",
            self.total_requests(),
            self.total_errors(),
            self.rejected_busy,
            self.rejected_shutdown,
            self.cache_hits,
            self.cache_misses,
            self.materializations,
            self.path_computations,
            self.conversions,
            self.invalidations,
        );
        // Quantile tokens quote the sliding window (identical to the
        // cumulative values until the first epoch tick); a `_window_low`
        // marker flags windows too thin to trust.
        let _ = write!(
            out,
            " path_fill_p50_us={} path_fill_p95_us={} path_fill_p99_us={}",
            self.path_fill_window.p50_us(),
            self.path_fill_window.p95_us(),
            self.path_fill_window.p99_us(),
        );
        if self.path_fill_window.count > 0 && self.path_fill_window.count < MIN_WINDOW_SAMPLES {
            let _ = write!(out, " path_fill_window_low=true");
        }
        for k in &self.kinds {
            let _ = write!(
                out,
                " {v}={} {v}_errors={} {v}_p50_us={} {v}_p95_us={} {v}_p99_us={}",
                k.requests,
                k.errors,
                k.window.p50_us(),
                k.window.p95_us(),
                k.window.p99_us(),
                v = k.verb
            );
            if k.window_low() {
                let _ = write!(out, " {v}_window_low=true", v = k.verb);
            }
        }
        out
    }

    /// Prometheus-style exposition lines for the service counters
    /// (`ft_serve_*` namespace), one `name{labels} value` per line, sorted
    /// for deterministic output. The `metrics` verb concatenates this with
    /// the process-global [`ft_obs::registry::expose`] text so one reply
    /// covers serve, solver and pool metrics.
    pub fn exposition(&self) -> String {
        use std::fmt::Write as _;
        let mut lines: Vec<String> = Vec::new();
        for k in &self.kinds {
            let labels = format!("verb=\"{}\"", k.verb);
            lines.push(format!(
                "ft_serve_requests_total{{{labels}}} {}",
                k.requests
            ));
            lines.push(format!("ft_serve_errors_total{{{labels}}} {}", k.errors));
            expose_histogram(
                &mut lines,
                "ft_serve_request_latency_us",
                &labels,
                &k.latency,
            );
            expose_histogram(
                &mut lines,
                "ft_serve_request_latency_us_window",
                &labels,
                &k.window,
            );
        }
        for (name, v) in [
            ("ft_serve_unparsed_errors_total", self.unparsed_errors),
            ("ft_serve_rejected_busy_total", self.rejected_busy),
            ("ft_serve_rejected_shutdown_total", self.rejected_shutdown),
            ("ft_serve_cache_hits_total", self.cache_hits),
            ("ft_serve_cache_misses_total", self.cache_misses),
            ("ft_serve_materializations_total", self.materializations),
            ("ft_serve_path_computations_total", self.path_computations),
            ("ft_serve_conversions_total", self.conversions),
            ("ft_serve_invalidations_total", self.invalidations),
        ] {
            lines.push(format!("{name} {v}"));
        }
        expose_histogram(&mut lines, "ft_serve_path_fill_us", "", &self.path_fill);
        expose_histogram(
            &mut lines,
            "ft_serve_path_fill_us_window",
            "",
            &self.path_fill_window,
        );
        lines.sort_unstable();
        let mut out = String::new();
        for l in &lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// The multi-line shutdown dump: counters plus per-kind histograms.
    pub fn render_report(&self, uptime: Duration) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ft-serve final report (uptime {:.3} s)",
            uptime.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "  requests: {} total, {} errors, {} busy-rejected, {} drain-rejected",
            self.total_requests(),
            self.total_errors(),
            self.rejected_busy,
            self.rejected_shutdown
        );
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses, {} materializations, {} path computations, {} invalidations",
            self.cache_hits, self.cache_misses, self.materializations, self.path_computations,
            self.invalidations
        );
        let _ = writeln!(out, "  conversions applied: {}", self.conversions);
        if self.path_computations > 0 {
            // mean is lifetime-cumulative; the quantiles quote the window
            let _ = writeln!(
                out,
                "  path fills: {} computed, mean {} µs, p50 {} µs, p95 {} µs, p99 {} µs",
                self.path_computations,
                self.path_fill.mean_us(),
                self.path_fill_window.p50_us(),
                self.path_fill_window.p95_us(),
                self.path_fill_window.p99_us()
            );
            if self.path_fill_window.count > 0 && self.path_fill_window.count < MIN_WINDOW_SAMPLES {
                let _ = writeln!(
                    out,
                    "    warning: only {} fill(s) in the window — quantiles are low-confidence",
                    self.path_fill_window.count
                );
            }
        }
        for k in &self.kinds {
            if k.requests == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<10} {:>6} req  {:>3} err  mean {:>8} µs  p50 {:>7} µs  p95 {:>7} µs  p99 {:>7} µs",
                k.verb,
                k.requests,
                k.errors,
                k.latency.mean_us(),
                k.window.p50_us(),
                k.window.p95_us(),
                k.window.p99_us()
            );
            if k.window_low() {
                let _ = writeln!(
                    out,
                    "    warning: only {} sample(s) in the window — quantiles are low-confidence",
                    k.window.count
                );
            }
            let mut hist = String::new();
            for (i, &c) in k.latency.buckets.iter().enumerate() {
                if c > 0 {
                    let lo = ft_obs::bucket_lower_bound_us(i);
                    let _ = write!(hist, " [{lo}µs:{c}]");
                }
            }
            if !hist.is_empty() {
                let _ = writeln!(out, "    latency buckets:{hist}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = MetricsRegistry::new();
        m.record("paths", Duration::from_micros(100), true);
        m.record("paths", Duration::from_micros(200), false);
        m.record("stats", Duration::from_micros(1), true);
        m.record_cache_hit();
        m.record_cache_miss();
        m.record_materialization();
        m.record_conversion();
        let s = m.snapshot();
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.total_errors(), 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.conversions, 1);
        assert_eq!(s.invalidations, 1);
        let paths = &s.kinds[1];
        assert_eq!(paths.verb, "paths");
        assert_eq!(paths.requests, 2);
        assert_eq!(paths.errors, 1);
        assert!(paths.p50_us() >= 64 && paths.p50_us() <= 128);
        assert!(paths.p95_us() >= paths.p50_us());
    }

    #[test]
    fn metrics_verb_is_a_tracked_kind() {
        let m = MetricsRegistry::new();
        m.record("metrics", Duration::from_micros(10), true);
        let s = m.snapshot();
        assert_eq!(s.total_requests(), 1);
        let k = s
            .kinds
            .iter()
            .find(|k| k.verb == "metrics")
            .expect("metrics kind");
        assert_eq!(k.requests, 1);
    }

    #[test]
    fn path_fill_latency_histogram() {
        let m = MetricsRegistry::new();
        m.record_path_computation(Duration::from_micros(100));
        m.record_path_computation(Duration::from_micros(100));
        m.record_path_computation(Duration::from_micros(5000));
        let s = m.snapshot();
        assert_eq!(s.path_computations, 3);
        assert_eq!(s.path_fill.sum_us, 5200);
        assert_eq!(s.path_fill.buckets.iter().sum::<u64>(), 3);
        assert!(s.path_fill_p50_us() >= 64 && s.path_fill_p50_us() <= 128);
        assert!(s.path_fill_p95_us() >= 4096);
        assert!(s.path_fill_p99_us() >= 4096);
        let line = s.stats_line();
        assert!(line.contains("path_computations=3"));
        assert!(line.contains("path_fill_p50_us="));
        assert!(line.contains("path_fill_p95_us="));
        let report = s.render_report(Duration::from_secs(1));
        assert!(report.contains("path fills: 3 computed"));
        assert!(report.contains("p95"));
    }

    #[test]
    fn windowed_quantiles_age_out_and_flag_thin_windows() {
        let m = MetricsRegistry::new();
        for _ in 0..16 {
            m.record("paths", Duration::from_millis(100), true);
        }
        // Advance one epoch at a time until the slow burst ages out.
        for e in 1..=(ft_obs::WINDOW_EPOCHS as u64) {
            m.maybe_tick(e * 1_000_000, 1_000_000);
        }
        m.record("paths", Duration::from_micros(10), true);
        let s = m.snapshot();
        let k = &s.kinds[1];
        assert_eq!(k.verb, "paths");
        assert_eq!(k.latency.count, 17, "cumulative keeps everything");
        assert_eq!(k.window.count, 1, "window aged the burst out");
        assert!(
            k.p95_us() >= 65536,
            "cumulative p95 stays slow: {}",
            k.p95_us()
        );
        assert!(
            k.window.p95_us() <= 16,
            "windowed p95 recovered: {}",
            k.window.p95_us()
        );
        assert!(k.window_low());
        let line = s.stats_line();
        assert!(line.contains("paths_p95_us=8"), "{line}");
        assert!(line.contains("paths_window_low=true"), "{line}");
        let report = s.render_report(Duration::from_secs(1));
        assert!(report.contains("low-confidence"), "{report}");
        let text = s.exposition();
        assert!(
            text.contains("ft_serve_request_latency_us_window{verb=\"paths\",q=\"0.95\"} 8"),
            "{text}"
        );
        assert!(
            text.contains("ft_serve_request_latency_us_window_count{verb=\"paths\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ft_serve_request_latency_us_count{verb=\"paths\"} 17"),
            "{text}"
        );
    }

    #[test]
    fn maybe_tick_zero_epoch_is_disabled() {
        let m = MetricsRegistry::new();
        m.record("topo", Duration::from_micros(50), true);
        m.maybe_tick(10_000_000, 0);
        let s = m.snapshot();
        assert_eq!(s.kinds[0].window.count, 1, "no tick may happen");
        assert_eq!(s.kinds[0].window.count, s.kinds[0].latency.count);
    }

    #[test]
    fn stats_line_is_single_line_and_parseable() {
        let m = MetricsRegistry::new();
        m.record("topo", Duration::from_micros(10), true);
        let line = m.snapshot().stats_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("cache_hits=0"));
        assert!(line.contains("topo=1"));
        assert!(line.contains("topo_p95_us="));
        for tok in line.split_whitespace() {
            assert!(tok.contains('='), "token {tok:?} not key=value");
        }
    }

    #[test]
    fn unknown_verb_counts_as_unparsed() {
        let m = MetricsRegistry::new();
        m.record("nope", Duration::from_micros(10), false);
        m.record_unparsed();
        assert_eq!(m.snapshot().total_errors(), 2);
        assert_eq!(m.snapshot().total_requests(), 0);
    }

    #[test]
    fn report_renders_only_active_kinds() {
        let m = MetricsRegistry::new();
        m.record("convert", Duration::from_millis(3), true);
        let r = m.snapshot().render_report(Duration::from_secs(1));
        assert!(r.contains("convert"));
        assert!(!r.contains("shutdown   "));
        assert!(r.contains("latency buckets"));
    }

    /// Pins the `metrics` text of a fixed registry, recorded when ft-serve
    /// still rendered its histograms itself: every verb with its own
    /// latencies and errors, a window that aged part of them out, every
    /// service counter and both path-fill histograms. Line count, a few
    /// lines of each shape, and an FNV-1a digest of the whole text.
    #[test]
    fn exposition_text_is_pinned() {
        let m = MetricsRegistry::new();
        for (i, verb) in KINDS.iter().enumerate() {
            for j in 0..=i as u64 {
                m.record(verb, Duration::from_micros(3 + 97 * j * j), j % 3 != 1);
            }
        }
        for e in 1..=ft_obs::WINDOW_EPOCHS as u64 {
            m.maybe_tick(e * 1_000_000, 1_000_000);
        }
        m.record("paths", Duration::from_micros(40), true);
        m.record("nope", Duration::from_micros(5), false);
        m.record_busy();
        m.record_shutdown_rejection();
        m.record_cache_hit();
        m.record_cache_miss();
        m.record_materialization();
        m.record_conversion();
        for us in [300, 900, 5_000] {
            m.record_path_computation(Duration::from_micros(us));
        }
        let text = m.snapshot().exposition();
        for line in [
            "ft_serve_request_latency_us{verb=\"throughput\",q=\"0.95\"} 256",
            "ft_serve_request_latency_us_window_count{verb=\"paths\"} 1",
            "ft_serve_path_fill_us{q=\"0.50\"} 512",
            "ft_serve_path_fill_us_sum 6200",
            "ft_serve_unparsed_errors_total 1",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
        }
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(
            (text.lines().count(), digest),
            (115, 0xd3c8_e290_20be_6944),
            "{text}"
        );
    }

    #[test]
    fn exposition_lines_cover_serve_metrics() {
        let m = MetricsRegistry::new();
        m.record("paths", Duration::from_micros(100), true);
        m.record_cache_miss();
        m.record_path_computation(Duration::from_micros(300));
        let text = m.snapshot().exposition();
        assert!(text.contains("ft_serve_requests_total{verb=\"paths\"} 1"));
        assert!(text.contains("ft_serve_cache_misses_total 1"));
        assert!(text.contains("ft_serve_request_latency_us{verb=\"paths\",q=\"0.50\"} 64"));
        assert!(text.contains("ft_serve_request_latency_us_count{verb=\"paths\"} 1"));
        assert!(text.contains("ft_serve_path_fill_us{q=\"0.99\"} 256"));
        assert!(text.contains("ft_serve_path_fill_us_count 1"));
        // Sorted and newline-terminated → deterministic, parse-friendly.
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert!(text.ends_with('\n'));
        for line in &lines {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap_or("");
            assert!(value.parse::<u64>().is_ok(), "bad value in {line:?}");
        }
    }
}
