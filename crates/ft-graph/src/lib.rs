//! Graph substrate for the flat-tree reproduction.
//!
//! This crate provides the graph data structures and algorithms that every
//! other crate in the workspace builds on:
//!
//! * [`Graph`] — an undirected multigraph with stable node and edge
//!   identifiers. Data center topologies routinely contain parallel links
//!   (e.g. the double side connectors between flat-tree Pods), so parallel
//!   edges are first-class citizens rather than an error.
//! * [`dist`] — the one hop-distance table, [`DistMatrix`]: `u16` hop
//!   counts filled by a multi-source bitset BFS over the frozen [`Csr`]
//!   view. Path length in hops is the paper's first evaluation metric
//!   (Figures 5 and 6). [`Csr::bfs_into_u16`] is the scalar kernel for
//!   single rows (ECMP) and the reference for the table, and [`bfs`]'s
//!   [`bfs_distances`] over the [`Graph`] adjacency is the oracle of both.
//! * [`par`] — the deterministic worker pool (`map`, `fill_chunks_with`)
//!   whose output never depends on scheduling.
//! * [`dijkstra`](mod@dijkstra) — single-source shortest paths under arbitrary non-negative
//!   per-edge lengths. The Fleischer–Garg–Könemann FPTAS in `ft-mcf` re-runs
//!   Dijkstra with exponentially-reweighted edge lengths on every iteration.
//! * [`yen`] — Yen's k-shortest loopless paths. The paper routes approximated
//!   random graphs with k-shortest-paths routing (§2.6, following Jellyfish).
//! * [`maxflow`] — Dinic's maximum flow, used for cut-based throughput upper
//!   bounds and as a test oracle for the LP/FPTAS solvers.
//! * [`bridges`](mod@bridges) — cut-edge detection (single points of failure).
//! * [`stats`] — degree histograms, connectivity, diameter.
//!
//! # Design notes
//!
//! The types here are deliberately simple: index-based adjacency lists with
//! `u32` identifiers, no generics over node/edge payloads, no interior
//! mutability. Payloads (device kinds, link capacities) live in the layers
//! that own them (`ft-topo`, `ft-mcf`), keyed by the stable ids. This keeps
//! the algorithms monomorphic, cache-friendly and trivially testable.
//!
//! Edge removal uses tombstones so that edge ids stay stable across failure
//! injection (`ft-sim` knocks out links and re-runs routing).

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

pub mod bfs;
pub mod bridges;
pub mod csr;
pub mod dijkstra;
pub mod dist;
pub mod error;
pub mod graph;
pub mod maxflow;
pub mod par;
pub mod stats;
pub mod yen;

pub use bfs::bfs_distances;
pub use bridges::bridges;
pub use csr::Csr;
pub use dijkstra::{dijkstra, dijkstra_csr, DijkstraResult};
pub use dist::DistMatrix;
pub use error::GraphError;
pub use graph::{id32, try_id32, EdgeId, Graph, NodeId};
pub use maxflow::FlowNetwork;
pub use stats::{degree_histogram, diameter, is_connected};
pub use yen::{k_shortest_paths, k_shortest_paths_csr, Path};

/// Distance value used by unweighted searches for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Unreachable sentinel of the compact `u16` tables ([`DistMatrix`]).
pub const UNREACHABLE16: u16 = u16::MAX;
