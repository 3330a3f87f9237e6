//! Zero-dependency, lock-light observability for the flat-tree workspace.
//!
//! Three layers (see DESIGN.md §12):
//!
//! 1. **Metric primitives** ([`Counter`], [`Gauge`], [`Histogram`]) — plain
//!    relaxed atomics, safe to hammer from any number of threads with no
//!    lost updates and no locks on the record path.
//! 2. **A global named registry** ([`registry`]) — `&'static` handles keyed
//!    by `(name, labels)`, rendered on demand into Prometheus-style text
//!    exposition lines (`name{label="v"} value`).
//! 3. **Structured spans** ([`Span`], [`span!`]) — start/stop timestamps,
//!    parent links and thread ids, buffered in a bounded per-thread ring and
//!    drained as JSONL to a process-wide sink (a trace file or an in-memory
//!    vector for tests).
//!
//! Two read-side layers complete the pipeline (DESIGN.md §17):
//! sliding-window histograms ([`window`]) whose readings cover the last
//! [`WINDOW_EPOCHS`] epochs instead of the process lifetime, and trace
//! analytics ([`analyze`]) that parse span JSONL back
//! into a forest for aggregates, critical paths, diffs and flamegraph /
//! Chrome exports (`ftctl trace`).
//!
//! # Overhead contract
//!
//! Tracing is **off by default**. The [`span!`] macro's only cost while
//! disabled is a single relaxed atomic load ([`enabled`]); it produces no
//! span, takes no lock and formats nothing. Counters are recorded at batch
//! points (once per solver run, once per parallel map) rather than inside
//! numeric inner loops, so the hot paths benchmarked by
//! `ftctl bench --check` are unchanged whether or not a sink is installed.
//! No instrumented code path changes any floating-point computation: λ and
//! APSP outputs stay bit-identical with tracing on or off.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod window;

pub use metrics::{
    bucket_lower_bound_us, bucket_of_us, quantile_lower_bound, Counter, Gauge, Histogram,
    HistogramSnapshot, BUCKETS,
};
pub use span::{flush, install_file_sink, install_memory_sink, take_sink, Span};
pub use window::{WindowClock, WindowedHistogram, MIN_WINDOW_SAMPLES, WINDOW_EPOCHS};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide instrumentation switch. Spans are only recorded while this
/// is `true`; metric primitives record regardless (they are cheap and the
/// exposition surface must work without tracing).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is span capture enabled? One relaxed atomic load — this is the entire
/// cost of a disabled [`span!`] site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span capture on or off. Usually paired with
/// [`install_file_sink`] / [`install_memory_sink`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Open a span if tracing is enabled, with optional `key = value` fields.
///
/// Evaluates to `Option<Span>`; the span closes (records its end timestamp
/// and queues a JSONL event) when the guard drops. While tracing is
/// disabled this is one relaxed atomic load and the field expressions are
/// **not** evaluated.
///
/// ```
/// let _g = ft_obs::span!("fptas.phase", k = 32usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::enabled() {
            #[allow(unused_mut)]
            let mut s = $crate::Span::begin($name);
            $( s.field(stringify!($key), $val); )*
            Some(s)
        } else {
            None
        }
    }};
}
