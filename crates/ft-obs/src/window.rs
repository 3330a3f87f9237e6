//! Sliding-window latency histograms, whose readings cover the last
//! [`WINDOW_EPOCHS`] epochs instead of the whole process lifetime.
//!
//! A windowed histogram is a ring of epoch slots. Recording lands in the
//! slot the cursor currently points at; an explicit [`WindowedHistogram::
//! tick`] clears the *next* slot and then advances the cursor, so the
//! merged snapshot always covers at most the last `WINDOW_EPOCHS` epochs
//! and a slot is recycled only after its contents have aged out of the
//! window. Who calls `tick()` and how often is the embedder's choice —
//! ft-serve drives it from a [`WindowClock`] at a configurable epoch
//! length, tests drive it by hand.
//!
//! Same discipline as [`crate::metrics`]: relaxed atomics only, no locks
//! on the record path, zero dependencies. Snapshots are advisory — a
//! recorder that read the cursor immediately before a tick may land its
//! sample in a slot that is just about to be (or was just) cleared. That
//! can lose or misplace individual samples at epoch boundaries, which is
//! the accepted trade for a lock-free record path; it never corrupts a
//! slot (every cell is an independent atomic) and never affects the
//! cumulative metrics recorded alongside.

use crate::metrics::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of epoch slots in a window ring. With ft-serve's default 1 s
/// epoch this makes every quoted quantile an "over the last ~8 s" figure.
pub const WINDOW_EPOCHS: usize = 8;

/// Fewest samples in a merged window for which a quantile is considered
/// trustworthy; below this, consumers should flag the reading (the
/// ft-serve stats line appends `<verb>_window_low=true`).
pub const MIN_WINDOW_SAMPLES: u64 = 8;

/// A latency histogram covering the last [`WINDOW_EPOCHS`] epochs.
#[derive(Debug)]
pub struct WindowedHistogram {
    epochs: [Histogram; WINDOW_EPOCHS],
    cursor: AtomicU64,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

impl WindowedHistogram {
    /// A fresh all-zero window (const, so it can live in statics).
    pub const fn new() -> Self {
        WindowedHistogram {
            epochs: [const { Histogram::new() }; WINDOW_EPOCHS],
            cursor: AtomicU64::new(0),
        }
    }

    /// Record one sample of `us` microseconds into the current epoch slot.
    #[inline]
    pub fn record_us(&self, us: u64) {
        let c = self.cursor.load(Ordering::Relaxed);
        // bounds: c % WINDOW_EPOCHS < WINDOW_EPOCHS = epochs.len()
        self.epochs[(c % WINDOW_EPOCHS as u64) as usize].record_us(us);
    }

    /// Record one sample from a [`Duration`] (saturating at `u64::MAX` µs).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Advance the window by one epoch: clear the slot about to become
    /// current, then publish the new cursor. Ticks must be serialized by
    /// the caller (ft-serve's [`WindowClock`] admits one winner per epoch
    /// boundary) — concurrent ticks would race the clear against
    /// recorders of the already-published slot.
    pub fn tick(&self) {
        let next = self.cursor.load(Ordering::Relaxed).wrapping_add(1);
        // bounds: next % WINDOW_EPOCHS < WINDOW_EPOCHS = epochs.len()
        self.epochs[(next % WINDOW_EPOCHS as u64) as usize].clear();
        self.cursor.store(next, Ordering::Relaxed);
    }

    /// Number of ticks so far (the cursor value).
    pub fn ticks(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// A merged snapshot over every live epoch slot — the "last window"
    /// reading the `_window` exposition lines and the ft-serve stats line
    /// quote quantiles from.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for e in &self.epochs {
            merged.merge_from(&e.snapshot());
        }
        merged
    }
}

/// Decides *when* windows tick, so embedders outside ft-obs never touch
/// relaxed atomics themselves (the lint's `relaxed-sync` rule is scoped
/// to this crate). Feed it a monotonic µs reading; when at least one
/// epoch has elapsed since the last admitted tick, exactly one caller is
/// told how many epochs to advance (capped at [`WINDOW_EPOCHS`] — after
/// a long idle stretch the whole window has aged out anyway) and every
/// concurrent rival gets 0.
#[derive(Debug, Default)]
pub struct WindowClock {
    last_us: AtomicU64,
}

impl WindowClock {
    /// A clock whose first epoch starts at time 0 (const, for statics).
    pub const fn new() -> Self {
        WindowClock {
            last_us: AtomicU64::new(0),
        }
    }

    /// How many epochs of length `epoch_us` have elapsed at `now_us`
    /// since the last admitted tick. Returns 0 while the epoch is still
    /// running, when `epoch_us` is 0 (windowing disabled), or when a
    /// concurrent caller already claimed this boundary.
    pub fn due_epochs(&self, now_us: u64, epoch_us: u64) -> u64 {
        if epoch_us == 0 {
            return 0;
        }
        let last = self.last_us.load(Ordering::Relaxed);
        let elapsed = now_us.saturating_sub(last);
        if elapsed < epoch_us {
            return 0;
        }
        let steps = elapsed / epoch_us;
        let next = last.saturating_add(steps.saturating_mul(epoch_us));
        // Relaxed CAS is enough: this atomic only elects a ticker, it
        // does not publish data (the slots are themselves atomics).
        if self
            .last_us
            .compare_exchange(last, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            steps.min(WINDOW_EPOCHS as u64)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_merges_live_epochs() {
        let w = WindowedHistogram::new();
        w.record_us(100);
        w.tick();
        w.record_us(200);
        let s = w.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_us, 300);
    }

    #[test]
    fn old_epochs_age_out() {
        let w = WindowedHistogram::new();
        w.record_us(100);
        w.tick();
        w.record_us(200);
        // 100 lives in slot 0; WINDOW_EPOCHS - 1 more ticks bring the
        // cursor back around and the final tick recycles slot 0.
        for _ in 0..WINDOW_EPOCHS - 1 {
            w.tick();
        }
        let s = w.snapshot();
        assert_eq!(s.count, 1, "oldest epoch must have aged out");
        assert_eq!(s.sum_us, 200);
        assert_eq!(w.ticks(), WINDOW_EPOCHS as u64);
    }

    #[test]
    fn full_rotation_empties_the_window() {
        let w = WindowedHistogram::new();
        for i in 0..100 {
            w.record_us(i);
            w.tick();
        }
        for _ in 0..WINDOW_EPOCHS {
            w.tick();
        }
        assert_eq!(w.snapshot().count, 0);
    }

    #[test]
    fn clock_admits_one_ticker_per_boundary() {
        let clk = WindowClock::new();
        assert_eq!(clk.due_epochs(500, 1000), 0, "epoch still running");
        assert_eq!(clk.due_epochs(1000, 1000), 1);
        assert_eq!(clk.due_epochs(1000, 1000), 0, "boundary already claimed");
        assert_eq!(clk.due_epochs(3500, 1000), 2, "two epochs elapsed");
        assert_eq!(
            clk.due_epochs(u64::MAX / 2, 1000),
            WINDOW_EPOCHS as u64,
            "long idle stretches cap at a full-window rotation"
        );
        assert_eq!(clk.due_epochs(123, 0), 0, "epoch 0 disables windowing");
    }
}
