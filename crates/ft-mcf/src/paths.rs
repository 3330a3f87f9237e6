//! Path-restricted maximum concurrent flow.
//!
//! The paper's throughput methodology assumes *optimal routing* (§3.1) —
//! flow may split arbitrarily over every path. A real deployment routes
//! over a small path set (ECMP or k-shortest paths, §2.6). This module
//! solves the concurrent-flow LP restricted to explicit per-commodity path
//! sets, so the *routing gap* — optimal λ vs achievable-under-KSP λ — can
//! be quantified (see the `routing_gap` integration tests and the
//! `mode_selection` example).
//!
//! Formulation (path-based, exact, via `ft-lp`):
//!
//! ```text
//! maximize   λ
//! subject to Σ_{p ∋ a} x_p ≤ cap(a)          for every arc a
//!            Σ_{p ∈ P_j} x_p = λ·d_j          for every commodity j
//!            x ≥ 0
//! ```
//!
//! Variables are per-path flows, so the LP stays small for the k ≤ 8 path
//! sets routing actually uses.

use crate::digraph::CapGraph;
use crate::{Commodity, McfError};
use ft_lp::{LpError, LpOutcome, LpProblem, Var};

/// A directed path for one commodity: the arc indices it traverses.
pub type ArcPath = Vec<usize>;

/// Solves max concurrent flow restricted to the given path sets.
///
/// `paths[j]` are the admissible paths of `commodities[j]`: arc-index
/// lists in source → destination order, such as a router's paths mapped
/// onto the arcs of [`CapGraph::from_graph`].
/// Returns 0.0 if any commodity has an empty path set (it cannot route at
/// all), `f64::INFINITY` for an empty commodity list.
///
/// # Errors
/// [`McfError::PathSetMismatch`] if `paths.len() != commodities.len()`;
/// [`McfError::Solver`] on an internal LP inconsistency. Path/endpoint
/// consistency is still a debug assertion.
pub fn max_concurrent_flow_on_paths(
    g: &CapGraph,
    commodities: &[Commodity],
    paths: &[Vec<ArcPath>],
) -> Result<f64, McfError> {
    if commodities.len() != paths.len() {
        return Err(McfError::PathSetMismatch {
            commodities: commodities.len(),
            path_sets: paths.len(),
        });
    }
    if commodities.is_empty() {
        return Ok(f64::INFINITY);
    }
    if paths.iter().any(|p| p.is_empty()) {
        return Ok(0.0);
    }
    #[cfg(debug_assertions)]
    for (c, ps) in commodities.iter().zip(paths) {
        for p in ps {
            if let (Some(&first), Some(&last)) = (p.first(), p.last()) {
                debug_assert_eq!(g.arc(first).from, c.src, "path must start at src");
                debug_assert_eq!(g.arc(last).to, c.dst, "path must end at dst");
            }
        }
    }

    let mut lp = LpProblem::new();
    let lambda = lp.add_var(1.0);
    // per-path flow variables
    let xs: Vec<Vec<Var>> = paths
        .iter()
        .map(|ps| ps.iter().map(|_| lp.add_var(0.0)).collect())
        .collect();
    // arc capacities
    let mut on_arc: Vec<Vec<Var>> = vec![Vec::new(); g.arc_count()];
    for (j, ps) in paths.iter().enumerate() {
        for (pi, p) in ps.iter().enumerate() {
            for &a in p {
                on_arc[a].push(xs[j][pi]);
            }
        }
    }
    for vars in &on_arc {
        if !vars.is_empty() {
            let terms: Vec<(Var, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            lp.add_le(&terms, g.cap());
        }
    }
    // demand satisfaction
    for (j, c) in commodities.iter().enumerate() {
        let mut terms: Vec<(Var, f64)> = xs[j].iter().map(|&v| (v, 1.0)).collect();
        terms.push((lambda, -c.demand));
        lp.add_eq(&terms, 0.0);
    }
    match lp.solve() {
        LpOutcome::Optimal(s) => Ok(s.value(lambda)),
        // The zero flow is always feasible, so this is a solver defect.
        LpOutcome::Infeasible => Err(McfError::Solver(LpError::Infeasible)),
        LpOutcome::Unbounded => Ok(f64::INFINITY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::max_concurrent_flow_exact;
    use ft_graph::{id32, k_shortest_paths, Graph, NodeId};

    fn unit(n: usize, edges: &[(u32, u32)]) -> (Graph, CapGraph) {
        let g = Graph::from_edges(n, edges);
        let cg = CapGraph::from_graph(&g, 1.0);
        (g, cg)
    }

    /// Up to `k` hop-shortest paths of `c` from ft-graph's Yen, as arcs of
    /// `CapGraph::from_graph(g)`: edge `e` is arc `2e` in its stored
    /// direction and `2e + 1` against it.
    fn ksp(g: &Graph, c: &Commodity, k: usize) -> Vec<ArcPath> {
        let ones = vec![1.0; g.edge_id_bound()];
        let (src, dst) = (NodeId(id32(c.src)), NodeId(id32(c.dst)));
        k_shortest_paths(g, src, dst, k, &ones)
            .iter()
            .map(|p| {
                let hops = p.edges.iter().zip(&p.nodes);
                hops.map(|(&e, &from)| 2 * e.index() + usize::from(g.endpoints(e).0 != from))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn single_path_restriction() {
        // diamond: optimal routing λ = 2 (two disjoint paths); restricted
        // to one path λ = 1
        let (g, cg) = unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let c = Commodity {
            src: 0,
            dst: 3,
            demand: 1.0,
        };
        let one = ksp(&g, &c, 1);
        assert_eq!(one.len(), 1);
        let l1 = max_concurrent_flow_on_paths(&cg, &[c], &[one]).unwrap();
        assert!((l1 - 1.0).abs() < 1e-6, "λ = {l1}");
        let two = ksp(&g, &c, 2);
        assert_eq!(two.len(), 2);
        let l2 = max_concurrent_flow_on_paths(&cg, &[c], &[two]).unwrap();
        assert!((l2 - 2.0).abs() < 1e-6, "λ = {l2}");
    }

    #[test]
    fn enough_paths_recover_optimum() {
        // K4: with generous path sets, the path-restricted LP matches the
        // edge-based optimum
        let (g, cg) = unit(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cs = [
            Commodity {
                src: 0,
                dst: 3,
                demand: 1.0,
            },
            Commodity {
                src: 1,
                dst: 2,
                demand: 1.0,
            },
        ];
        let exact = max_concurrent_flow_exact(&cg, &cs).unwrap();
        let paths: Vec<Vec<ArcPath>> = cs.iter().map(|c| ksp(&g, c, 8)).collect();
        let restricted = max_concurrent_flow_on_paths(&cg, &cs, &paths).unwrap();
        assert!(restricted <= exact + 1e-6);
        assert!(
            restricted >= exact - 1e-6,
            "restricted {restricted} vs exact {exact}"
        );
    }

    #[test]
    fn restriction_never_helps() {
        let (g, cg) = unit(5, &[(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4), (1, 2)]);
        let cs = [Commodity {
            src: 0,
            dst: 4,
            demand: 2.0,
        }];
        let exact = max_concurrent_flow_exact(&cg, &cs).unwrap();
        for k in 1..=4 {
            let paths = vec![ksp(&g, &cs[0], k)];
            let restricted = max_concurrent_flow_on_paths(&cg, &cs, &paths).unwrap();
            assert!(
                restricted <= exact + 1e-6,
                "k = {k}: restricted {restricted} beats exact {exact}"
            );
        }
    }

    #[test]
    fn empty_path_set_zero() {
        let (g, cg) = unit(3, &[(0, 1)]);
        let c = Commodity {
            src: 0,
            dst: 2,
            demand: 1.0,
        };
        assert!(ksp(&g, &c, 3).is_empty());
        let l = max_concurrent_flow_on_paths(&cg, &[c], &[vec![]]).unwrap();
        assert_eq!(l, 0.0);
    }

    #[test]
    fn no_commodities_infinite() {
        let (_, cg) = unit(2, &[(0, 1)]);
        assert!(max_concurrent_flow_on_paths(&cg, &[], &[])
            .unwrap()
            .is_infinite());
    }

    #[test]
    fn path_set_mismatch_rejected() {
        let (_, cg) = unit(2, &[(0, 1)]);
        let c = Commodity {
            src: 0,
            dst: 1,
            demand: 1.0,
        };
        let err = max_concurrent_flow_on_paths(&cg, &[c], &[]).unwrap_err();
        assert_eq!(
            err,
            McfError::PathSetMismatch {
                commodities: 1,
                path_sets: 0
            }
        );
    }
}
