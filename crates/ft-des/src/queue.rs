//! The clocked event queue: a min-heap over [`EventKey`]s, the
//! simulation clock, and the tallies of the run that drains it.
//!
//! `std::collections::BinaryHeap` makes no promise about the pop order of
//! *equal* elements, so the queue never gives it any: every scheduled
//! event receives a unique sequence number, making each [`EventKey`]
//! distinct and the pop order a pure function of `(time, schedule
//! order)`. [`EventQueue::schedule`] refuses `NaN` timestamps and times
//! before the clock — causality violations surface at the call site, not
//! as a scrambled heap three million events later — so the pop loop needs
//! no float-comparison escape hatches at all.
//!
//! A run is the client's loop over [`EventQueue::next`]: each call pops
//! the earliest event, advances the clock to its time, and hands the
//! payload back for the client to handle. Events scheduled before the
//! run's first dispatch are its seeds; everything scheduled after it is a
//! follow-up. [`EventQueue::finish`] closes the run.
//!
//! Determinism contract (DESIGN.md §14): given the same seeded events and
//! a deterministic client, the dispatch sequence — and therefore every
//! downstream artifact — is bit-identical across runs and thread counts,
//! because the only ordering authority is the total-order [`EventKey`].

use crate::key::{EventKey, ScheduleError, TimePoint};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry. Ordering ignores the payload: keys are unique
/// (the seq component), so payloads never need to be comparable.
struct Entry<E> {
    key: EventKey,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Tallies of one run: from the queue's creation or the last
/// [`EventQueue::finish`] up to the next one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events popped by [`EventQueue::next`].
    pub processed: u64,
    /// Follow-up events: those scheduled after the run's first dispatch
    /// (the seeds are not counted).
    pub scheduled: u64,
    /// True when the run stopped at the horizon with events still
    /// pending, false when the queue drained.
    pub truncated: bool,
}

/// Future-event set ordered by `(time, insertion seq)`, with the clock it
/// advances.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: f64,
    stats: RunStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            stats: RunStats::default(),
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue, clock at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time: 0 before the first event, afterwards the
    /// timestamp of the most recently popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The run's tallies so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Schedules `event` at absolute time `at`, returning its key. `at`
    /// may equal [`EventQueue::now`] (the event runs later this same
    /// timestamp, after everything already queued there) but may not
    /// precede it, and may not be `NaN`.
    pub fn schedule(&mut self, at: f64, event: E) -> Result<EventKey, ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::InPast { at, now: self.now });
        }
        let key = EventKey {
            time: TimePoint::new(at)?,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            key,
            payload: event,
        }));
        if self.stats.processed > 0 {
            self.stats.scheduled += 1;
        }
        Ok(key)
    }

    /// The key of the earliest pending event, without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    /// Pops the earliest event (FIFO among equal times) and advances the
    /// clock to it. Returns `None` when the queue is empty or the earliest
    /// event lies beyond `horizon` (events at exactly `horizon` pop); the
    /// latter marks the run truncated.
    pub fn next(&mut self, horizon: f64) -> Option<(EventKey, E)> {
        if self.peek_key()?.time.value() > horizon {
            self.stats.truncated = true;
            return None;
        }
        let Reverse(Entry { key, payload }) = self.heap.pop()?;
        self.now = key.time.value();
        self.stats.processed += 1;
        Some((key, payload))
    }

    /// Closes the run: adds its tallies to the ft-obs counters
    /// `ft_des_events_total`, `ft_des_scheduled_total` and
    /// `ft_des_runs_total` and returns them. The clock and the pending
    /// events stay, so a later run continues where this one stopped.
    pub fn finish(&mut self) -> RunStats {
        let stats = std::mem::take(&mut self.stats);
        let counter = ft_obs::registry::counter;
        counter("ft_des_events_total").add(stats.processed);
        counter("ft_des_scheduled_total").add(stats.scheduled);
        counter("ft_des_runs_total").incr();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q` with no horizon, collecting payloads in pop order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.next(f64::INFINITY).map(|(_, p)| p)).collect()
    }

    /// Runs a ticker: every event `i` records the clock and, while
    /// `i + 1 < limit`, schedules `i + 1` one `period` later.
    fn tick(q: &mut EventQueue<u64>, horizon: f64, limit: u64, period: f64, times: &mut Vec<f64>) {
        while let Some((_, i)) = q.next(horizon) {
            times.push(q.now());
            if i + 1 < limit {
                let at = q.now() + period;
                assert_eq!(q.schedule(at, i + 1).err(), None, "tick at {at}");
            }
        }
    }

    #[test]
    fn pops_in_time_order() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c")?;
        q.schedule(1.0, "a")?;
        q.schedule(2.0, "b")?;
        assert_eq!(drain(&mut q), ["a", "b", "c"]);
        Ok(())
    }

    /// Equal-time events pop in schedule order, seeds and follow-ups
    /// alike.
    #[test]
    fn equal_times_pop_fifo() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        for i in 0..32 {
            q.schedule(5.0, i)?;
        }
        let mut order = Vec::new();
        while let Some((key, i)) = q.next(f64::INFINITY) {
            assert_eq!(key.seq, order.len() as u64);
            order.push(i);
            if i < 32 {
                q.schedule(5.0, i + 100)?;
            }
        }
        let want: Vec<i32> = (0..32).chain(100..132).collect();
        assert_eq!(order, want);
        Ok(())
    }

    #[test]
    fn nan_rejected_and_queue_unchanged() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        q.schedule(1.0, ())?;
        assert_eq!(q.schedule(f64::NAN, ()), Err(ScheduleError::NotANumber));
        assert_eq!(q.len(), 1);
        Ok(())
    }

    #[test]
    fn peek_matches_pop() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        q.schedule(2.0, "later")?;
        let sooner = q.schedule(1.0, "sooner")?;
        assert_eq!(q.peek_key(), Some(sooner));
        assert_eq!(q.next(f64::INFINITY), Some((sooner, "sooner")));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        Ok(())
    }

    #[test]
    fn keys_are_unique_even_at_equal_times() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, ())?;
        let b = q.schedule(1.0, ())?;
        assert_ne!(a, b);
        assert!(a < b);
        Ok(())
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        q.schedule(10.0, 10)?;
        q.schedule(0.5, 0)?;
        assert_eq!(q.next(f64::INFINITY).map(|(_, p)| p), Some(0));
        q.schedule(5.0, 5)?;
        q.schedule(1.0, 1)?; // earlier than everything left
        assert_eq!(drain(&mut q), [1, 5, 10]);
        assert!(q.next(f64::INFINITY).is_none());
        Ok(())
    }

    #[test]
    fn dispatch_advances_clock_and_drains() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        q.schedule(1.0, 0)?;
        let mut times = Vec::new();
        tick(&mut q, f64::INFINITY, 4, 1.5, &mut times);
        assert_eq!(times, vec![1.0, 2.5, 4.0, 5.5]);
        assert_eq!(q.now().to_bits(), 5.5f64.to_bits());
        let stats = q.finish();
        assert_eq!(stats.processed, 4);
        assert_eq!(stats.scheduled, 3, "the seed is not a follow-up");
        assert!(!stats.truncated);
        assert!(q.is_empty());
        assert_eq!(q.stats(), RunStats::default(), "finish starts a new run");
        Ok(())
    }

    #[test]
    fn horizon_truncates_inclusively() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        q.schedule(0.0, 0)?;
        let mut times = Vec::new();
        tick(&mut q, 3.0, 100, 1.0, &mut times);
        // events at 0,1,2,3 run; the one at 4 stays pending
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
        assert!(q.finish().truncated);
        assert_eq!(q.len(), 1);
        // a second run continues from where the first stopped
        tick(&mut q, 5.0, 100, 1.0, &mut times);
        assert_eq!(times.len(), 6);
        let stats = q.finish();
        assert!(stats.truncated);
        assert_eq!((stats.processed, stats.scheduled), (2, 2));
        Ok(())
    }

    #[test]
    fn schedule_rejects_past_and_nan() -> Result<(), ScheduleError> {
        let mut q = EventQueue::new();
        assert_eq!(q.schedule(f64::NAN, 0), Err(ScheduleError::NotANumber));
        let early = ScheduleError::InPast { at: -1.0, now: 0.0 };
        assert_eq!(q.schedule(-1.0, 0), Err(early));
        q.schedule(2.0, 0)?;
        assert_eq!(drain(&mut q), [0]);
        assert_eq!(q.now().to_bits(), 2.0f64.to_bits());
        let err = ScheduleError::InPast { at: 1.0, now: 2.0 };
        assert_eq!(q.schedule(1.0, 0), Err(err));
        assert!(err.to_string().contains("precedes"));
        assert_eq!(q.finish().scheduled, 0, "refused events are not counted");
        Ok(())
    }
}
