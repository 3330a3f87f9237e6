//! Sliding-window integration tests: rotation under concurrent recording,
//! and prefix-filtered determinism of the exposition text (this binary's
//! tests run in parallel threads, so whole-text comparisons would race
//! other tests' metrics — each test owns a unique name prefix instead).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ft_obs::{registry, WindowedHistogram, WINDOW_EPOCHS};
use std::thread;

#[test]
fn window_hammer_without_ticks_loses_no_updates() {
    let w = WindowedHistogram::new();
    const THREADS: usize = 8;
    const ITERS: u64 = 10_000;
    thread::scope(|s| {
        for t in 0..THREADS {
            let w = &w;
            s.spawn(move || {
                for i in 0..ITERS {
                    w.record_us((t as u64 * ITERS + i) % 2048);
                }
            });
        }
    });
    let snap = w.snapshot();
    let n = THREADS as u64 * ITERS;
    assert_eq!(snap.count, n, "window lost samples with no ticks");
    assert_eq!(snap.buckets.iter().sum::<u64>(), n);
    let mut expect_sum = 0u64;
    for t in 0..THREADS as u64 {
        for i in 0..ITERS {
            expect_sum += (t * ITERS + i) % 2048;
        }
    }
    assert_eq!(snap.sum_us, expect_sum);
}

#[test]
fn window_rotation_under_concurrent_recording_is_sound() {
    let w = WindowedHistogram::new();
    const THREADS: usize = 4;
    const ITERS: u64 = 20_000;
    thread::scope(|s| {
        for _ in 0..THREADS {
            let w = &w;
            s.spawn(move || {
                for i in 0..ITERS {
                    w.record_us(i % 1000);
                }
            });
        }
        // One ticker (ticks must be serialized on a single caller) racing
        // the recorders: samples landing in a slot mid-recycle may be
        // shed — that loss is the documented epoch-boundary tearing — but
        // the ring must never invent samples or corrupt its accounting.
        let w = &w;
        s.spawn(move || {
            for _ in 0..(WINDOW_EPOCHS / 2) {
                w.tick();
                thread::yield_now();
            }
        });
    });
    // Quiesced: reads are exact now.
    let snap = w.snapshot();
    let total = THREADS as u64 * ITERS;
    assert!(
        snap.count <= total,
        "window invented samples: {}",
        snap.count
    );
    assert!(snap.count > 0, "everything was shed");
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    assert_eq!(w.ticks(), (WINDOW_EPOCHS / 2) as u64);

    // A full ring of further ticks ages every survivor out …
    for _ in 0..WINDOW_EPOCHS {
        w.tick();
    }
    assert_eq!(w.snapshot().count, 0, "full rotation must empty the window");
    // … and the ring is immediately usable again.
    for _ in 0..5 {
        w.record_us(42);
    }
    assert_eq!(w.snapshot().count, 5);
}

#[test]
fn exposition_is_deterministic_and_sorted() {
    registry::counter("dettest_total").add(7);
    registry::histogram("dettest_us").record_us(300);
    let filtered = |text: &str| {
        text.lines()
            .filter(|l| l.starts_with("dettest_"))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    let a = filtered(&registry::expose());
    let b = filtered(&registry::expose());
    assert_eq!(a, b, "repeat renders must be byte-identical");
    assert!(!a.is_empty());
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(a, sorted, "exposition lines must come out sorted");
    // The full text is sorted too (global property, stable under races
    // because sortedness holds for any interleaving of registrations).
    let text = registry::expose();
    let lines: Vec<&str> = text.lines().collect();
    let mut all_sorted = lines.clone();
    all_sorted.sort_unstable();
    assert_eq!(lines, all_sorted);
}
