//! The flat-tree convertible data center network architecture — the
//! paper's primary contribution (§2).
//!
//! A flat-tree network is physically a Clos/fat-tree in which small
//! port-count **converter switches** are spliced into selected edge–server
//! and aggregation–core links. Reconfiguring the converters logically
//! rewires those links, converting the network between:
//!
//! * **Clos** — every converter in its *default* configuration reproduces
//!   the original fat-tree link-for-link;
//! * **approximated global random graph** — 4-port converters go *local*
//!   (server → aggregation, edge ↔ core), 6-port converters go *side* /
//!   *cross* (server → core, edge/aggregation ↔ the adjacent Pod);
//! * **approximated local random graphs** — 4-port *local*, 6-port
//!   *default*: each Pod flattens internally (half the servers move to
//!   aggregation switches) while Pod–core wiring stays Clos-like;
//! * **hybrid** — any per-Pod mix of the above, organized into zones.
//!
//! The module map mirrors the paper's §2:
//!
//! | paper | module |
//! |---|---|
//! | §2.1 converter configurations (Fig. 1) | [`converter`] |
//! | §2.2 the flat-tree Pod (Fig. 3) | [`geometry`] |
//! | §2.3 Pod-core wiring patterns (Fig. 4) | [`wiring`] |
//! | §2.4 server distribution profiling | [`profile`] |
//! | §2.5 inter-Pod side wiring | [`interpod`] |
//! | wiring Properties 1 & 2 | [`validation`] |
//! | the assembled architecture | [`flattree`] |
//! | §3.1 the evaluated topology family | [`topology`] |
//!
//! The central type is [`FlatTree`]: build once from a [`FlatTreeConfig`],
//! then [`FlatTree::materialize`] any [`Mode`] into an `ft_topo::Network`
//! for metrics, routing or simulation. Materialization is pure — the
//! control plane in `ft-control` layers reconfiguration planning on top.
//! [`Topology`] names the four networks the evaluation compares — fat-tree,
//! random graph, two-stage random graph and the flat-tree in one
//! [`PodMode`] — and builds each from fat-tree(k)'s equipment.

// Unit tests are exempt from the panic-free policy (see DESIGN.md,
// "Static analysis & error-handling policy").
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod converter;
pub mod flattree;
pub mod geometry;
pub mod interpod;
pub mod mode;
pub mod profile;
pub mod topology;
pub mod validation;
pub mod wiring;

pub use config::{FlatTreeConfig, FlatTreeError, InterPodWiring, WiringPattern};
pub use converter::{ConverterKind, FourPortConfig, SixPortConfig};
pub use flattree::{ConverterStates, FlatTree};
pub use mode::{Mode, PodMode};
pub use profile::{profile_mn, ProfilePoint, ProfileResult};
pub use topology::Topology;
pub use validation::{core_distribution, CoreDistribution};
