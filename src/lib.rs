//! # flat-tree
//!
//! A production-quality Rust reproduction of *"Flat-tree: A Convertible Data
//! Center Network Architecture from Clos to Random Graph"* (Xia & Ng,
//! HotNets-XV, 2016).
//!
//! Flat-tree is a data center network that is physically built as a Clos
//! (fat-tree) network but can be *converted*, by re-programming small
//! port-count converter switches, into approximated random graphs at several
//! scales — network-wide, per-Pod, or a hybrid mix of zones.
//!
//! This façade crate re-exports the workspace crates:
//!
//! * [`graph`] — graph substrate (BFS/APSP, Dijkstra, Yen KSP, Dinic).
//! * [`lp`] — dense two-phase simplex LP solver.
//! * [`mcf`] — maximum concurrent multi-commodity flow (exact + FPTAS).
//! * [`topo`] — baseline topologies: fat-tree, Jellyfish random graph,
//!   two-stage random graph; the shared [`topo::Network`] model.
//! * [`core`] — the flat-tree architecture itself: converter switches, Pods,
//!   wiring patterns, operation modes.
//! * [`control`] — centralized controller: zones, reconfiguration plans,
//!   ECMP/KSP routing.
//! * [`workload`] — data-center traffic patterns and placement localities.
//! * [`metrics`] — average path length and throughput evaluation.
//! * [`des`] — deterministic discrete-event engine: total-order event
//!   keys, pending-event queue, component handler registry (extension).
//! * [`sim`] — flow-level max-min fairness simulator (extension) on the
//!   [`des`] engine: flows, link failures and repairs, and live zone
//!   conversions.
//! * [`serve`] — resident FTQ/1 query service: worker pool, materialization
//!   cache, request metrics (in-process + localhost TCP transports).
//! * [`obs`] — zero-dependency observability: structured spans (JSONL
//!   sink), a global counter/gauge/histogram registry, and Prometheus-style
//!   exposition; off by default at one relaxed atomic load per site.
//!
//! ## Quickstart
//!
//! ```
//! use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
//! use flat_tree::metrics::path_length::average_server_path_length;
//!
//! // Build a k = 8 flat-tree with the paper's profiled m = k/8, n = 2k/8.
//! let cfg = FlatTreeConfig::for_fat_tree_k(8).unwrap();
//! let ft = FlatTree::new(cfg).unwrap();
//!
//! // Convert: Clos mode reproduces the fat-tree exactly.
//! let clos = ft.materialize(&Mode::Clos).unwrap();
//! // Global random-graph approximation flattens the hierarchy.
//! let flat = ft.materialize(&Mode::GlobalRandom).unwrap();
//!
//! let apl_clos = average_server_path_length(&clos);
//! let apl_flat = average_server_path_length(&flat);
//! assert!(apl_flat < apl_clos, "flattening shortens paths");
//! ```

pub mod cli;

pub use ft_control as control;
pub use ft_core as core;
pub use ft_des as des;
pub use ft_graph as graph;
pub use ft_lp as lp;
pub use ft_mcf as mcf;
pub use ft_metrics as metrics;
pub use ft_obs as obs;
pub use ft_serve as serve;
pub use ft_sim as sim;
pub use ft_topo as topo;
pub use ft_workload as workload;
