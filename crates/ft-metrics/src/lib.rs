//! The paper's two evaluation metrics (§3.1) and reporting helpers.
//!
//! * [`path_length`] — average path length in hops between server pairs,
//!   network-wide (Figure 5) or restricted to intra-Pod pairs (Figure 6).
//!   Converter switches are physical-layer and contribute no hops, so the
//!   metric is exact BFS distance on the logical switch graph plus the two
//!   server–switch hops.
//! * [`throughput`](mod@throughput) — maximum concurrent flow λ for a server-level traffic
//!   matrix (Figures 7 and 8): demands are aggregated to attachment
//!   switches (server links are uncapacitated, per the paper's relaxation),
//!   switch–switch links get unit capacity per direction, and the rate is
//!   solved exactly (small instances) or with the FPTAS.
//! * [`bisection`] — bisection-bandwidth estimates (an extension: the
//!   classic worst-case capacity summary from the random-graph literature).
//! * [`report`] — fixed-width tables and named series for the experiment
//!   binaries, matching the rows/curves the paper plots.

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

pub mod bisection;
pub mod path_length;
pub mod report;
pub mod throughput;

pub use bisection::{pod_bisection_bandwidth, random_bisection_bandwidth};
pub use path_length::{
    average_intra_pod_path_length, average_intra_pod_path_length_with, average_server_path_length,
    average_server_path_length_with, path_length_histogram, SwitchDistances,
};
pub use report::{budget_warning, Series, Table};
pub use throughput::{
    throughput, throughput_all_to_all, throughput_on_commodities, SolverKind, ThroughputOptions,
    ThroughputResult,
};
