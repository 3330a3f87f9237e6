//! Deterministic pending-event set: a min-heap over [`EventKey`]s.
//!
//! `std::collections::BinaryHeap` makes no promise about the pop order of
//! *equal* elements, so the queue never gives it any: every pushed event
//! receives a unique sequence number, making each [`EventKey`] distinct
//! and the pop order a pure function of `(time, push order)`. `NaN`
//! timestamps are rejected at [`EventQueue::push`], so the hot pop loop
//! needs no float-comparison escape hatches at all.

use crate::key::{EventKey, TimeError, TimePoint};
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

/// Future-event set ordered by `(time, insertion seq)`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at time `time`, returning its key.
    /// Fails only on a `NaN` timestamp.
    pub fn push(&mut self, time: f64, payload: E) -> Result<EventKey, TimeError> {
        let key = EventKey {
            time: TimePoint::new(time)?,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, payload }));
        Ok(key)
    }

    /// Removes and returns the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.payload))
    }

    /// The key of the earliest pending event, without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() -> Result<(), TimeError> {
        let mut q = EventQueue::new();
        q.push(3.0, "c")?;
        q.push(1.0, "a")?;
        q.push(2.0, "b")?;
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        Ok(())
    }

    #[test]
    fn equal_times_pop_fifo() -> Result<(), TimeError> {
        let mut q = EventQueue::new();
        for i in 0..32 {
            q.push(5.0, i)?;
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        Ok(())
    }

    #[test]
    fn nan_rejected_and_queue_unchanged() -> Result<(), TimeError> {
        let mut q = EventQueue::new();
        q.push(1.0, ())?;
        assert_eq!(q.push(f64::NAN, ()), Err(TimeError::NotANumber));
        assert_eq!(q.len(), 1);
        Ok(())
    }

    #[test]
    fn peek_matches_pop() -> Result<(), TimeError> {
        let mut q = EventQueue::new();
        q.push(2.0, "later")?;
        let sooner = q.push(1.0, "sooner")?;
        assert_eq!(q.peek_key(), Some(sooner));
        assert_eq!(q.pop(), Some((sooner, "sooner")));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        Ok(())
    }

    #[test]
    fn keys_are_unique_even_at_equal_times() -> Result<(), TimeError> {
        let mut q = EventQueue::new();
        let a = q.push(1.0, ())?;
        let b = q.push(1.0, ())?;
        assert_ne!(a, b);
        assert!(a < b);
        Ok(())
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() -> Result<(), TimeError> {
        let mut q = EventQueue::new();
        q.push(10.0, 10)?;
        q.push(1.0, 1)?;
        assert_eq!(q.pop().map(|(_, p)| p), Some(1));
        q.push(5.0, 5)?;
        q.push(0.5, 0)?; // earlier than everything left
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [0, 5, 10]);
        assert!(q.pop().is_none());
        Ok(())
    }
}
