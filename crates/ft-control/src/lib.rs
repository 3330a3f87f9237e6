//! The flat-tree control plane (§2.6).
//!
//! Data centers are administered by a single authority, so the paper adopts
//! a centralized controller that (1) selects among the pre-known operation
//! modes — explicitly, zone by zone, or adaptively from traffic
//! measurements — (2) reconfigures the converter switches to change the
//! topology, and (3) installs routing appropriate to the active topology:
//! ECMP for Clos, k-shortest-paths for the approximated random graphs
//! (following Jellyfish).
//!
//! * [`controller`] — the [`Controller`] façade tying everything together.
//! * [`plan`] — reconfiguration planning: which converters flip, which
//!   logical links appear/disappear (the physical-layer "rewiring").
//! * [`routing`] — ECMP on lazily filled distance rows and cached
//!   k-shortest-path sets, plus deterministic flow-level path selection.
//! * [`rules`] — SDN-style per-switch forwarding rule compilation
//!   ("program the routing decisions via SDN", §2.6).
//! * [`zones`] — named Pod ranges with per-zone modes (§3.4 hybrid
//!   operation).
//! * [`advisor`] — measurement-driven mode recommendation ("in an adaptive
//!   manner through network measurement", §2.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod controller;
pub mod plan;
pub mod routing;
pub mod rules;
pub mod zones;

pub use advisor::{recommend_mode, TrafficSummary};
pub use controller::Controller;
pub use plan::{plan_transition, plan_zone_transition, ReconfigPlan, ZonePlanError};
pub use routing::{EcmpRoutes, KspRoutes, ServerPath};
pub use rules::{compile_rules, RuleTable};
pub use zones::{zones_to_mode, Zone, ZoneError};
