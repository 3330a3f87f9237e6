//! Exact maximum concurrent flow via the edge-based LP.
//!
//! The formulation is the standard one the paper cites (Leighton–Rao):
//!
//! ```text
//! maximize   λ
//! subject to Σ_j f_j(a)                  ≤ cap(a)      for every arc a
//!            Σ_out f_j − Σ_in f_j        = 0           for every commodity j,
//!                                                      node v ∉ {s_j, t_j}
//!            Σ_out f_j − Σ_in f_j        = λ·d_j       at v = s_j
//!            f, λ ≥ 0
//! ```
//!
//! Variable count is `1 + K·A` (K commodities, A arcs), so this is for
//! small instances — tests, cross-validation of the FPTAS, and the tiny
//! topologies in the examples. Large sweeps use [`crate::fptas`].

use crate::digraph::CapGraph;
use crate::{Commodity, McfError};
use ft_lp::{LpError, LpOutcome, LpProblem, Var};

/// Solves max concurrent flow exactly. Returns the optimal λ.
///
/// Returns 0.0 when any commodity's destination is unreachable (the LP is
/// feasible only at λ = 0) and when `commodities` is empty... the latter is
/// reported as `f64::INFINITY` since every λ is feasible.
///
/// # Errors
/// [`McfError::InvalidCommodity`] if a commodity has `src == dst` or
/// non-positive demand (filter with [`crate::aggregate_commodities`]);
/// [`McfError::Solver`] on an internal LP inconsistency.
pub fn max_concurrent_flow_exact(g: &CapGraph, commodities: &[Commodity]) -> Result<f64, McfError> {
    if commodities.is_empty() {
        return Ok(f64::INFINITY);
    }
    let a_cnt = g.arc_count();
    let n = g.node_count();
    let mut lp = LpProblem::new();
    let lambda = lp.add_var(1.0);
    // flow variables f[j][a]
    let mut f: Vec<Vec<Var>> = Vec::with_capacity(commodities.len());
    for c in commodities {
        if c.src == c.dst || c.demand <= 0.0 {
            return Err(McfError::InvalidCommodity {
                src: c.src,
                dst: c.dst,
                demand: c.demand,
            });
        }
        f.push((0..a_cnt).map(|_| lp.add_var(0.0)).collect());
    }
    // capacity per arc
    for ai in 0..a_cnt {
        let terms: Vec<(Var, f64)> = f.iter().map(|fj| (fj[ai], 1.0)).collect();
        lp.add_le(&terms, g.cap());
    }
    // conservation
    for (j, c) in commodities.iter().enumerate() {
        for v in 0..n {
            if v == c.dst {
                continue; // implied by the others
            }
            let mut terms: Vec<(Var, f64)> = Vec::new();
            for &ai in g.out_arcs(v) {
                terms.push((f[j][ai as usize], 1.0));
            }
            for ai in g.in_arcs(v) {
                terms.push((f[j][ai as usize], -1.0));
            }
            if v == c.src {
                terms.push((lambda, -c.demand));
            }
            lp.add_eq(&terms, 0.0);
        }
    }
    match lp.solve() {
        LpOutcome::Optimal(s) => Ok(s.value(lambda)),
        // λ = 0, f = 0 is always feasible, so this is a solver defect.
        LpOutcome::Infeasible => Err(McfError::Solver(LpError::Infeasible)),
        LpOutcome::Unbounded => Ok(f64::INFINITY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::Graph;

    fn unit_capgraph(n: usize, edges: &[(u32, u32)]) -> CapGraph {
        CapGraph::from_graph(&Graph::from_edges(n, edges), 1.0)
    }

    #[test]
    fn single_commodity_path() {
        // path of 3 nodes, one commodity demand 1 → λ = 1 (one unit path)
        let g = unit_capgraph(3, &[(0, 1), (1, 2)]);
        let cs = [Commodity {
            src: 0,
            dst: 2,
            demand: 1.0,
        }];
        let l = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!((l - 1.0).abs() < 1e-6, "λ = {l}");
    }

    #[test]
    fn single_commodity_matches_maxflow() {
        // diamond: two disjoint 2-hop paths → max flow 2 for demand 1
        let g = unit_capgraph(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let cs = [Commodity {
            src: 0,
            dst: 3,
            demand: 1.0,
        }];
        let l = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!((l - 2.0).abs() < 1e-6, "λ = {l}");
    }

    #[test]
    fn triangle_two_commodities() {
        // triangle, commodities (0→1) and (0→2) demand 1 each.
        // Direct paths give λ = 1; detours add capacity:
        // cut at node 0 has out-capacity 2 and total demand 2λ ⇒ λ ≤ 1.
        let g = unit_capgraph(3, &[(0, 1), (1, 2), (0, 2)]);
        let cs = [
            Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            },
            Commodity {
                src: 0,
                dst: 2,
                demand: 1.0,
            },
        ];
        let l = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!((l - 1.0).abs() < 1e-6, "λ = {l}");
    }

    #[test]
    fn opposing_commodities_share_nothing() {
        // full duplex: 0→1 and 1→0 both get the full unit
        let g = unit_capgraph(2, &[(0, 1)]);
        let cs = [
            Commodity {
                src: 0,
                dst: 1,
                demand: 1.0,
            },
            Commodity {
                src: 1,
                dst: 0,
                demand: 1.0,
            },
        ];
        let l = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!((l - 1.0).abs() < 1e-6, "λ = {l}");
    }

    #[test]
    fn bottleneck_shared_fairly() {
        // two commodities share one unit edge → λ = 0.5
        let g = unit_capgraph(4, &[(0, 2), (1, 2), (2, 3)]);
        let cs = [
            Commodity {
                src: 0,
                dst: 3,
                demand: 1.0,
            },
            Commodity {
                src: 1,
                dst: 3,
                demand: 1.0,
            },
        ];
        let l = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!((l - 0.5).abs() < 1e-6, "λ = {l}");
    }

    #[test]
    fn demand_scaling_inversely_scales_lambda() {
        let g = unit_capgraph(3, &[(0, 1), (1, 2)]);
        let l1 = max_concurrent_flow_exact(
            &g,
            &[Commodity {
                src: 0,
                dst: 2,
                demand: 1.0,
            }],
        )
        .unwrap();
        let l2 = max_concurrent_flow_exact(
            &g,
            &[Commodity {
                src: 0,
                dst: 2,
                demand: 2.0,
            }],
        )
        .unwrap();
        assert!((l1 - 2.0 * l2).abs() < 1e-6);
    }

    #[test]
    fn unreachable_commodity_zero() {
        let g = unit_capgraph(3, &[(0, 1)]);
        let l = max_concurrent_flow_exact(
            &g,
            &[Commodity {
                src: 0,
                dst: 2,
                demand: 1.0,
            }],
        )
        .unwrap();
        assert!(l.abs() < 1e-9);
    }

    #[test]
    fn empty_commodities_unbounded() {
        let g = unit_capgraph(2, &[(0, 1)]);
        assert!(max_concurrent_flow_exact(&g, &[]).unwrap().is_infinite());
    }

    #[test]
    fn invalid_commodity_rejected() {
        let g = unit_capgraph(2, &[(0, 1)]);
        let err = max_concurrent_flow_exact(
            &g,
            &[Commodity {
                src: 1,
                dst: 1,
                demand: 1.0,
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            McfError::InvalidCommodity { src: 1, dst: 1, .. }
        ));
        let err = max_concurrent_flow_exact(
            &g,
            &[Commodity {
                src: 0,
                dst: 1,
                demand: 0.0,
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            McfError::InvalidCommodity { src: 0, dst: 1, .. }
        ));
    }

    #[test]
    fn ring_all_to_all() {
        // 4-cycle, all ordered pairs demand 1.
        // By symmetry each of the 8 arcs carries the same load; total
        // demand-hops per λ: 8 pairs at distance 1 or 2 (4 at d=1 via one
        // hop, 4 opposite pairs at d=2) → min hops = 4·1 + 2·2·2 = 12
        // arc-units per λ (ordered pairs: 8 adjacent at 1 hop, 4 opposite
        // at 2 hops → 8 + 8 = 16 arc-units); capacity total = 8 ⇒
        // λ ≤ 0.5. Achievable by symmetry.
        let g = unit_capgraph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut cs = Vec::new();
        for s in 0..4 {
            for t in 0..4 {
                if s != t {
                    cs.push(Commodity {
                        src: s,
                        dst: t,
                        demand: 1.0,
                    });
                }
            }
        }
        let l = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!((l - 0.5).abs() < 1e-6, "λ = {l}");
    }
}
