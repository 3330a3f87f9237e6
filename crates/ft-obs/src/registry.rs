//! The global named metric registry and its text exposition renderer.
//!
//! Call sites obtain `&'static` handles once (cache them in a `OnceLock`
//! for hot paths — lookup scans a mutex-guarded vector) and then record
//! lock-free through the primitives in [`crate::metrics`]. [`expose`]
//! renders every registered metric as Prometheus-style text lines:
//!
//! ```text
//! name 42
//! name{label="v"} 42
//! latency_us{q="0.50"} 128
//! latency_us_count 7
//! latency_us_sum 3210
//! ```

use crate::metrics::{Counter, Gauge, Histogram};
use std::sync::{Mutex, MutexGuard};

#[derive(Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    /// Pre-rendered label pairs (`kind="solver",mode="batched"`), or `""`.
    labels: &'static str,
    handle: Handle,
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn lock_registry() -> MutexGuard<'static, Vec<Entry>> {
    // A poisoned registry only means some thread panicked mid-lookup; the
    // entries themselves are append-only and always consistent.
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// The counter registered under `name` (no labels), creating it on first
/// use. Repeat calls return the same `&'static` cell. Registering the same
/// `(name, labels)` pair as a different metric kind is a caller bug and
/// yields a second, separately exposed cell rather than a panic.
pub fn counter(name: &'static str) -> &'static Counter {
    counter_with(name, "")
}

/// The counter registered under `name{labels}`. `labels` must be
/// pre-rendered label pairs such as `kind="solver"` (no braces).
pub fn counter_with(name: &'static str, labels: &'static str) -> &'static Counter {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name == name && e.labels == labels {
            if let Handle::Counter(c) = e.handle {
                return c;
            }
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.push(Entry {
        name,
        labels,
        handle: Handle::Counter(c),
    });
    c
}

/// The gauge registered under `name` (no labels), creating it on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name == name && e.labels.is_empty() {
            if let Handle::Gauge(g) = e.handle {
                return g;
            }
        }
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    reg.push(Entry {
        name,
        labels: "",
        handle: Handle::Gauge(g),
    });
    g
}

/// The histogram registered under `name` (no labels), creating it on first
/// use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name == name && e.labels.is_empty() {
            if let Handle::Histogram(h) = e.handle {
                return h;
            }
        }
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.push(Entry {
        name,
        labels: "",
        handle: Handle::Histogram(h),
    });
    h
}

fn labelled(name: &str, labels: &str, extra: Option<&str>) -> String {
    match (labels.is_empty(), extra) {
        (true, None) => name.to_string(),
        (true, Some(x)) => format!("{name}{{{x}}}"),
        (false, None) => format!("{name}{{{labels}}}"),
        (false, Some(x)) => format!("{name}{{{labels},{x}}}"),
    }
}

/// Render every registered metric as exposition text, one `name{labels}
/// value` line each, sorted by line for deterministic output. Histograms
/// expand to `q="0.50"/"0.95"/"0.99"` quantile lines plus `_count` and
/// `_sum` (µs) totals.
pub fn expose() -> String {
    let reg = lock_registry();
    let mut lines: Vec<String> = Vec::new();
    for e in reg.iter() {
        match &e.handle {
            Handle::Counter(c) => {
                lines.push(format!("{} {}", labelled(e.name, e.labels, None), c.get()));
            }
            Handle::Gauge(g) => {
                lines.push(format!("{} {}", labelled(e.name, e.labels, None), g.get()));
            }
            Handle::Histogram(h) => {
                let (name, labels, s) = (e.name, e.labels, h.snapshot());
                for (q, tag) in [(0.5, "0.50"), (0.95, "0.95"), (0.99, "0.99")] {
                    let lbl = format!("q=\"{tag}\"");
                    let line = labelled(name, labels, Some(&lbl));
                    lines.push(format!("{line} {}", s.quantile_us(q)));
                }
                let count = labelled(&format!("{name}_count"), labels, None);
                lines.push(format!("{count} {}", s.count));
                let sum = labelled(&format!("{name}_sum"), labels, None);
                lines.push(format!("{sum} {}", s.sum_us));
            }
        }
    }
    drop(reg);
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that register or render metrics: the registry
    /// is process-global, and one test's registrations would otherwise
    /// change another's repeat render mid-comparison.
    static REGISTRY_TESTS: Mutex<()> = Mutex::new(());

    fn serialize() -> MutexGuard<'static, ()> {
        REGISTRY_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_handles_are_stable() {
        let _serial = serialize();
        let a = counter("ft_obs_test_counter_total");
        let b = counter("ft_obs_test_counter_total");
        assert!(std::ptr::eq(a, b), "same name must return the same cell");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), b.get());
    }

    #[test]
    fn labels_separate_cells() {
        let _serial = serialize();
        let a = counter_with("ft_obs_test_labelled_total", "kind=\"a\"");
        let b = counter_with("ft_obs_test_labelled_total", "kind=\"b\"");
        assert!(!std::ptr::eq(a, b));
        a.incr();
        let text = expose();
        assert!(text.contains("ft_obs_test_labelled_total{kind=\"a\"} 1"));
        assert!(text.contains("ft_obs_test_labelled_total{kind=\"b\"} 0"));
    }

    #[test]
    fn exposition_covers_all_kinds() {
        let _serial = serialize();
        counter("ft_obs_test_expose_total").add(3);
        gauge("ft_obs_test_expose_gauge").set(9);
        histogram("ft_obs_test_expose_us").record_us(100);
        let text = expose();
        assert!(text.contains("ft_obs_test_expose_total 3"));
        assert!(text.contains("ft_obs_test_expose_gauge 9"));
        assert!(text.contains("ft_obs_test_expose_us{q=\"0.50\"} 64"));
        assert!(text.contains("ft_obs_test_expose_us_count 1"));
        assert!(text.contains("ft_obs_test_expose_us_sum 100"));
        // Deterministic: rendering twice yields identical text.
        assert_eq!(text, expose());
        // Every line is `name[{labels}] value`.
        for line in text.lines() {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap_or("");
            assert!(value.parse::<u64>().is_ok(), "bad value in {line:?}");
            assert!(parts.next().is_some(), "no name in {line:?}");
        }
    }
}
