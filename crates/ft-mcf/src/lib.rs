//! Maximum concurrent multi-commodity flow — the paper's throughput
//! methodology (§3.1).
//!
//! The paper measures topology throughput by assuming optimal routing and
//! solving the *maximum concurrent multi-commodity flow* problem
//! \[Leighton & Rao, J.ACM'99\]: maximize λ such that every commodity `j`
//! can simultaneously route `λ·demand_j` through the network without
//! exceeding any link capacity. All switch–switch links have unit capacity
//! per direction; server links are uncapacitated (the paper relaxes server
//! bandwidth to expose switch-level capacity), which this crate models by
//! aggregating server-pair demands to their attachment switches before
//! solving.
//!
//! Solvers provided:
//!
//! * [`exact::max_concurrent_flow_exact`] — the edge-based LP solved with
//!   `ft-lp`'s simplex. Exact, used for small instances and as the oracle
//!   that validates the FPTAS.
//! * [`fptas::max_concurrent_flow`] — the Garg–Könemann fully polynomial
//!   approximation scheme with Fleischer-style **source batching**: one
//!   shortest-path tree per (source, step) serves every commodity sharing
//!   that source, so the Dijkstra count per phase is O(#sources) instead of
//!   O(#commodities). Scales past the paper's k = 32 networks (11 200
//!   commodities). The returned λ is *certified primal feasible* (we
//!   rescale the accumulated flow by its worst link overload), so it is a
//!   true lower bound regardless of floating-point drift. It comes with a
//!   certified upper bound and the reason the run stopped
//!   ([`fptas::Stop`]): a run stops once λ is within 1 % of that bound,
//!   else at the textbook dual termination, where the theory guarantees
//!   `(1 − 3ε)` of optimal; a tripped step budget is reported via
//!   [`fptas::McfSolution::budget_exhausted`], never as a silent λ = 0.
//!   [`fptas::max_concurrent_flow_reference`] retains the per-commodity
//!   routing loop as the validation oracle.
//! * [`shard::max_concurrent_flow_aggregated`] — the same batched loop on
//!   a symmetry quotient: orbit representatives as commodities, arc
//!   classes as the capacitated elements (k = 64/128 all-to-all).
//! * [`paths::max_concurrent_flow_on_paths`] — the concurrent-flow LP
//!   restricted to explicit path sets, quantifying what k-shortest-paths
//!   routing (§2.6) loses relative to the paper's optimal-routing
//!   assumption.
//! * [`bounds`] — cheap cut-based upper bounds used for demand pre-scaling
//!   and sanity checks.

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

pub mod bounds;
pub mod digraph;
pub mod exact;
pub mod fptas;
pub mod paths;
pub mod shard;

pub use bounds::node_cut_upper_bound;
pub use digraph::{CapGraph, DijkstraScratch};
pub use exact::max_concurrent_flow_exact;
pub use fptas::{
    max_concurrent_flow, max_concurrent_flow_reference, FptasOptions, McfSolution, Stop, GAP,
};
pub use paths::{k_shortest_arc_paths, max_concurrent_flow_on_paths, ArcPath};
pub use shard::{max_concurrent_flow_aggregated, AggregatedInstance, DistanceOracle};

/// Errors reported by the concurrent-flow solvers.
///
/// All solver entry points validate their inputs and return this instead of
/// asserting, so callers feeding computed demand matrices (e.g. `ft-metrics`
/// throughput sweeps) can surface bad instances without aborting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum McfError {
    /// A commodity had `src == dst` or non-positive demand; such triples
    /// must be filtered out first (see [`aggregate_commodities`]).
    InvalidCommodity {
        /// Source switch index of the offending commodity.
        src: usize,
        /// Destination switch index of the offending commodity.
        dst: usize,
        /// Its demand.
        demand: f64,
    },
    /// The FPTAS approximation parameter was outside `(0, 0.5)`.
    InvalidEpsilon {
        /// The rejected ε.
        epsilon: f64,
    },
    /// `max_concurrent_flow_on_paths` was given a path-set list whose
    /// length does not match the commodity list.
    PathSetMismatch {
        /// Number of commodities.
        commodities: usize,
        /// Number of path sets supplied.
        path_sets: usize,
    },
    /// [`max_concurrent_flow_aggregated`] was given a graph other than the
    /// one its instance was built from.
    GraphMismatch {
        /// `(nodes, arcs)` of the graph the instance was built from.
        built: (usize, usize),
        /// `(nodes, arcs)` of the graph passed to the solver.
        given: (usize, usize),
    },
    /// The underlying LP reported an outcome the MCF formulation rules out
    /// (the zero flow is always feasible) — an internal solver
    /// inconsistency, typically from numerically hostile capacities.
    Solver(ft_lp::LpError),
}

impl std::fmt::Display for McfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            McfError::InvalidCommodity { src, dst, demand } => write!(
                f,
                "invalid commodity {src} -> {dst} (demand {demand}): endpoints must \
                 differ and demand must be positive"
            ),
            McfError::InvalidEpsilon { epsilon } => {
                write!(f, "FPTAS epsilon {epsilon} outside (0, 0.5)")
            }
            McfError::PathSetMismatch {
                commodities,
                path_sets,
            } => write!(
                f,
                "{path_sets} path sets supplied for {commodities} commodities"
            ),
            McfError::GraphMismatch { built, given } => write!(
                f,
                "aggregated instance was built from a graph with {} nodes and {} arcs, \
                 solved on one with {} nodes and {} arcs",
                built.0, built.1, given.0, given.1
            ),
            McfError::Solver(e) => write!(f, "LP solver inconsistency: {e}"),
        }
    }
}

impl std::error::Error for McfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McfError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ft_lp::LpError> for McfError {
    fn from(e: ft_lp::LpError) -> Self {
        McfError::Solver(e)
    }
}

/// A commodity: `demand` units of flow from switch `src` to switch `dst`
/// (indices into the switch graph the [`CapGraph`] was built from).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commodity {
    /// Source switch index.
    pub src: usize,
    /// Destination switch index.
    pub dst: usize,
    /// Demand (λ multiplies this).
    pub demand: f64,
}

/// Aggregates raw `(src, dst, demand)` triples into one commodity per
/// ordered switch pair, dropping `src == dst` pairs (they use no network
/// capacity once server links are uncapacitated — the paper's relaxation).
pub fn aggregate_commodities(
    triples: impl IntoIterator<Item = (usize, usize, f64)>,
) -> Vec<Commodity> {
    use std::collections::BTreeMap;
    // BTreeMap: per-pair sums still accumulate in input order, and the
    // (src, dst)-sorted iteration below gives the deterministic commodity
    // order the solver needs — no post-sort, no hash-seed dependence
    let mut acc: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (s, t, d) in triples {
        if s != t && d > 0.0 {
            *acc.entry((s, t)).or_insert(0.0) += d;
        }
    }
    acc.into_iter()
        .map(|((src, dst), demand)| Commodity { src, dst, demand })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_merges_and_drops_self() {
        let cs = aggregate_commodities(vec![
            (0, 1, 1.0),
            (0, 1, 2.0),
            (1, 0, 1.0),
            (2, 2, 5.0),
            (0, 2, 0.0),
        ]);
        assert_eq!(
            cs,
            vec![
                Commodity {
                    src: 0,
                    dst: 1,
                    demand: 3.0
                },
                Commodity {
                    src: 1,
                    dst: 0,
                    demand: 1.0
                },
            ]
        );
    }

    #[test]
    fn aggregate_empty() {
        assert!(aggregate_commodities(Vec::<(usize, usize, f64)>::new()).is_empty());
    }
}
