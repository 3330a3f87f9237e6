//! The simulation engine: a clock, a component registry, and the event
//! dispatch loop.
//!
//! The engine is deliberately generic: it knows nothing about flows,
//! links, or topologies. A simulation registers [`Component`]s (each a
//! named event handler), seeds initial events, and calls [`Engine::run`].
//! Events are addressed to a single component and dispatched in strict
//! `(time, insertion seq)` order; during dispatch a handler mutates the
//! shared state `S` and may schedule follow-up events through
//! [`Context`], which refuses both `NaN` timestamps and times before the
//! current clock — causality violations surface at the call site, not as
//! a scrambled heap three million events later.
//!
//! Determinism contract (DESIGN.md §14): given the same seeded events and
//! deterministic handlers, the dispatch sequence — and therefore every
//! downstream artifact — is bit-identical across runs and thread counts,
//! because the only ordering authority is the total-order
//! [`EventKey`](crate::EventKey).

use crate::key::{EventKey, TimeError};
use crate::queue::EventQueue;
use std::fmt;
use std::sync::OnceLock;

/// Handle to a registered component; returned by [`Engine::register`] and
/// used to address events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Position of the component in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named event handler. `S` is the simulation state shared by all
/// components of an engine; `E` is the simulation's event payload type.
pub trait Component<S, E> {
    /// Stable name, used in traces and observability output.
    fn name(&self) -> &'static str;

    /// Handles one event addressed to this component. `state` is the
    /// shared simulation state; `ctx` carries the clock and schedules
    /// follow-up events.
    fn on_event(&mut self, event: &E, state: &mut S, ctx: &mut Context<'_, E>);
}

/// Why a schedule request was refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScheduleError {
    /// The requested timestamp was `NaN`.
    NotANumber,
    /// The requested timestamp precedes the current simulation clock.
    InPast {
        /// Requested event time.
        at: f64,
        /// Current simulation clock.
        now: f64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotANumber => write!(f, "event time is NaN"),
            ScheduleError::InPast { at, now } => {
                write!(f, "event time {at} precedes simulation clock {now}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<TimeError> for ScheduleError {
    fn from(e: TimeError) -> Self {
        match e {
            TimeError::NotANumber => ScheduleError::NotANumber,
        }
    }
}

/// Handler-side view of the engine during dispatch: read the clock,
/// schedule follow-up events.
pub struct Context<'a, E> {
    now: f64,
    queue: &'a mut EventQueue<(ComponentId, E)>,
    scheduled: &'a mut u64,
}

impl<E> Context<'_, E> {
    /// Current simulation time (the timestamp of the event being
    /// dispatched).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events pending in the queue right now — the queue-depth
    /// reading the ft-sim conversion timeline samples per epoch.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events scheduled by handlers so far in this run (the seeded events
    /// are not counted) — an event-rate proxy for per-epoch telemetry.
    pub fn scheduled_so_far(&self) -> u64 {
        *self.scheduled
    }

    /// Schedules `event` for `target` at absolute time `at`. `at` may
    /// equal [`Context::now`] (the event runs later this same timestamp,
    /// after everything already queued there) but may not precede it.
    pub fn schedule(
        &mut self,
        at: f64,
        target: ComponentId,
        event: E,
    ) -> Result<EventKey, ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::InPast { at, now: self.now });
        }
        let key = self.queue.push(at, (target, event))?;
        *self.scheduled += 1;
        Ok(key)
    }
}

/// Tallies from one [`Engine::run`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events dispatched to handlers.
    pub processed: u64,
    /// Events scheduled by handlers during the run (seeded events not
    /// included).
    pub scheduled: u64,
    /// True when the run stopped at the horizon with events still
    /// pending, false when the queue drained.
    pub truncated: bool,
}

/// Cached ft-obs registry handles: events dispatched, events scheduled
/// from handlers, and completed runs. Flushed once per [`Engine::run`].
struct DesCounters {
    events: &'static ft_obs::Counter,
    scheduled: &'static ft_obs::Counter,
    runs: &'static ft_obs::Counter,
}

fn obs() -> &'static DesCounters {
    static CELL: OnceLock<DesCounters> = OnceLock::new();
    CELL.get_or_init(|| DesCounters {
        events: ft_obs::registry::counter("ft_des_events_total"),
        scheduled: ft_obs::registry::counter("ft_des_scheduled_total"),
        runs: ft_obs::registry::counter("ft_des_runs_total"),
    })
}

/// The event loop: clock + component registry + pending-event queue.
pub struct Engine<S, E> {
    queue: EventQueue<(ComponentId, E)>,
    now: f64,
    components: Vec<Box<dyn Component<S, E>>>,
}

impl<S, E> Default for Engine<S, E> {
    fn default() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: 0.0,
            components: Vec::new(),
        }
    }
}

impl<S, E> Engine<S, E> {
    /// An engine with no components and an empty queue, clock at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component and returns its id. Registration order is
    /// part of the simulation definition (ids index traces).
    pub fn register(&mut self, component: Box<dyn Component<S, E>>) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(component);
        id
    }

    /// Current simulation time: 0 before the first event, afterwards the
    /// timestamp of the most recently dispatched event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seeds an event before (or between) runs. Subject to the same
    /// causality rules as [`Context::schedule`].
    pub fn schedule(
        &mut self,
        at: f64,
        target: ComponentId,
        event: E,
    ) -> Result<EventKey, ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::InPast { at, now: self.now });
        }
        Ok(self.queue.push(at, (target, event))?)
    }

    /// Dispatches events in key order until the queue drains or the next
    /// event lies beyond `horizon` (events at exactly `horizon` run).
    pub fn run(&mut self, state: &mut S, horizon: f64) -> RunStats {
        self.run_observed(state, horizon, |_, _, _| {})
    }

    /// [`Engine::run`] with an observer called for every dispatched event
    /// — `(key, component name, event)` — before its handler runs. The
    /// `ftctl sim` JSONL trace is this observer writing one line per
    /// event.
    pub fn run_observed<F>(&mut self, state: &mut S, horizon: f64, mut observe: F) -> RunStats
    where
        F: FnMut(EventKey, &'static str, &E),
    {
        let mut span = ft_obs::span!("des.run", components = self.components.len());
        let mut stats = RunStats::default();
        while let Some(key) = self.queue.peek_key() {
            if key.time.value() > horizon {
                stats.truncated = true;
                break;
            }
            let Some((key, (target, event))) = self.queue.pop() else {
                break; // unreachable: peek just succeeded
            };
            self.now = key.time.value();
            // Split borrows: the handler gets the queue, the loop keeps
            // the component list.
            let Some(component) = self.components.get_mut(target.index()) else {
                continue; // event addressed to an unregistered id; drop it
            };
            observe(key, component.name(), &event);
            let mut ctx = Context {
                now: self.now,
                queue: &mut self.queue,
                scheduled: &mut stats.scheduled,
            };
            component.on_event(&event, state, &mut ctx);
            stats.processed += 1;
        }
        let c = obs();
        c.events.add(stats.processed);
        c.scheduled.add(stats.scheduled);
        c.runs.incr();
        if let Some(s) = span.as_mut() {
            s.field("processed", stats.processed);
            s.field("scheduled", stats.scheduled);
            s.field("truncated", stats.truncated);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts events and echoes one follow-up per tick until a limit.
    struct Ticker {
        limit: u64,
        period: f64,
    }

    impl Component<Vec<f64>, u64> for Ticker {
        fn name(&self) -> &'static str {
            "ticker"
        }

        fn on_event(&mut self, event: &u64, state: &mut Vec<f64>, ctx: &mut Context<'_, u64>) {
            state.push(ctx.now());
            if *event + 1 < self.limit {
                let me = ComponentId(0);
                let at = ctx.now() + self.period;
                assert_eq!(ctx.schedule(at, me, event + 1).err(), None, "tick at {at}");
            }
        }
    }

    #[test]
    fn dispatch_advances_clock_and_drains() -> Result<(), ScheduleError> {
        let mut eng: Engine<Vec<f64>, u64> = Engine::new();
        let t = eng.register(Box::new(Ticker {
            limit: 4,
            period: 1.5,
        }));
        eng.schedule(1.0, t, 0)?;
        let mut times = Vec::new();
        let stats = eng.run(&mut times, f64::INFINITY);
        assert_eq!(times, vec![1.0, 2.5, 4.0, 5.5]);
        assert_eq!(eng.now().to_bits(), 5.5f64.to_bits());
        assert_eq!(stats.processed, 4);
        assert_eq!(stats.scheduled, 3);
        assert!(!stats.truncated);
        assert_eq!(eng.pending(), 0);
        Ok(())
    }

    #[test]
    fn horizon_truncates_inclusively() -> Result<(), ScheduleError> {
        let mut eng: Engine<Vec<f64>, u64> = Engine::new();
        let t = eng.register(Box::new(Ticker {
            limit: 100,
            period: 1.0,
        }));
        eng.schedule(0.0, t, 0)?;
        let mut times = Vec::new();
        let stats = eng.run(&mut times, 3.0);
        // events at 0,1,2,3 run; the one at 4 stays pending
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
        assert!(stats.truncated);
        assert_eq!(eng.pending(), 1);
        // a second run continues from where the first stopped
        let stats2 = eng.run(&mut times, 5.0);
        assert_eq!(times.len(), 6);
        assert!(stats2.truncated);
        Ok(())
    }

    #[test]
    fn schedule_rejects_past_and_nan() -> Result<(), ScheduleError> {
        let mut eng: Engine<Vec<f64>, u64> = Engine::new();
        let t = eng.register(Box::new(Ticker {
            limit: 1,
            period: 1.0,
        }));
        assert_eq!(eng.schedule(f64::NAN, t, 0), Err(ScheduleError::NotANumber));
        eng.schedule(2.0, t, 0)?;
        let mut sink = Vec::new();
        eng.run(&mut sink, f64::INFINITY);
        assert_eq!(eng.now().to_bits(), 2.0f64.to_bits());
        let err = ScheduleError::InPast { at: 1.0, now: 2.0 };
        assert_eq!(eng.schedule(1.0, t, 0), Err(err));
        assert!(err.to_string().contains("precedes"));
        Ok(())
    }

    /// Two components at the same timestamp: dispatch order must be the
    /// seeding order, and the observer must see every event.
    struct Tag(&'static str);

    impl Component<Vec<&'static str>, ()> for Tag {
        fn name(&self) -> &'static str {
            self.0
        }

        fn on_event(&mut self, _: &(), state: &mut Vec<&'static str>, _: &mut Context<'_, ()>) {
            state.push(self.0);
        }
    }

    #[test]
    fn equal_time_events_dispatch_in_seed_order() -> Result<(), ScheduleError> {
        let mut eng: Engine<Vec<&'static str>, ()> = Engine::new();
        let a = eng.register(Box::new(Tag("alpha")));
        let b = eng.register(Box::new(Tag("beta")));
        eng.schedule(1.0, b, ())?;
        eng.schedule(1.0, a, ())?;
        eng.schedule(1.0, b, ())?;
        let mut seen = Vec::new();
        let mut observed = Vec::new();
        eng.run_observed(&mut seen, f64::INFINITY, |key, name, _| {
            observed.push((key.seq, name));
        });
        assert_eq!(seen, vec!["beta", "alpha", "beta"]);
        assert_eq!(observed, vec![(0, "beta"), (1, "alpha"), (2, "beta")]);
        Ok(())
    }

    #[test]
    fn unknown_component_events_are_dropped() -> Result<(), ScheduleError> {
        let mut eng: Engine<Vec<&'static str>, ()> = Engine::new();
        let a = eng.register(Box::new(Tag("only")));
        eng.schedule(1.0, ComponentId(7), ())?;
        eng.schedule(2.0, a, ())?;
        let mut seen = Vec::new();
        let stats = eng.run(&mut seen, f64::INFINITY);
        assert_eq!(seen, vec!["only"]);
        assert_eq!(stats.processed, 1);
        Ok(())
    }
}
