//! Flow-level network simulator — an extension beyond the paper's
//! LP-based evaluation.
//!
//! The paper measures *optimal-routing* throughput (maximum concurrent
//! flow). A downstream adopter also wants to know what a real dataplane
//! with hashed path selection and TCP-like fair sharing would deliver, and
//! how the network behaves under link failures and live conversions. The
//! [`des`] module simulates exactly that on the `ft-des` discrete-event
//! engine:
//!
//! * flows are routed (ECMP or k-shortest-paths, per the active mode's
//!   routing from `ft-control`) with deterministic per-flow hashing;
//! * link bandwidth is shared **max-min fairly** among the flows crossing
//!   each directed link (the classic fluid approximation of per-flow
//!   fairness, computed by progressive filling in [`ratealloc`], which
//!   re-solves only the flows that share links with a change);
//! * time advances from event to event — arrivals, completions, topology
//!   changes — recording flow completion times;
//! * scheduled link failures/repairs re-route affected flows mid-run —
//!   modeling the paper's §5 "self-recovery of the topology from failures"
//!   direction;
//! * **live zone conversion** applies an `ft-control` reconfiguration plan
//!   mid-run with modeled converter latency (drained links, re-routed and
//!   re-rated flows).
//!
//! Determinism: identical inputs (network, flows, events) produce identical
//! schedules; there is no hidden RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod flows;
pub mod ratealloc;

pub use des::{
    ConversionEvent, DesError, DesFlowRecord, DesReport, DesSimulator, FlowSpec, RouterPolicy,
    TopoEvent,
};
pub use flows::{flows_from_matrix, flows_with_arrivals};
pub use ratealloc::{max_min_rates, DirectedLink, MaxMin};
