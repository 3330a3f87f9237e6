//! ft-des: a deterministic, clocked discrete-event queue.
//!
//! The flat-tree paper's core claim is that the fabric can convert
//! between Clos and random-graph modes *while carrying traffic* (§2.6).
//! Measuring that requires a simulator where the topology itself is an
//! event source — flow arrivals, link failures, and zone conversions all
//! land in one totally ordered queue. This crate is that queue; the
//! simulator that drains it lives in `ft-sim::des`:
//!
//! - [`TimePoint`] / [`EventKey`]: total-order keys over `f64`
//!   timestamps — `NaN` rejected at construction, insertion sequence
//!   number as the tie-break, so heap order is a pure function of push
//!   order (`key` module).
//! - [`EventQueue`]: the pending-event min-heap plus the simulation
//!   clock. [`EventQueue::schedule`] refuses `NaN` and past times,
//!   [`EventQueue::next`] pops in key order up to an inclusive horizon,
//!   and [`EventQueue::finish`] returns the run's [`RunStats`] and flushes
//!   them to ft-obs counters (`queue` module).
//!
//! Everything is bit-deterministic by construction: the queue has no
//! wall-clock, no hashing, and no thread-count dependence, which is what
//! lets the conversion-disruption experiments compare event traces with
//! `cmp`(1) across `FT_THREADS` settings (DESIGN.md §14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod queue;

pub use key::{EventKey, ScheduleError, TimePoint};
pub use queue::{EventQueue, RunStats};
