//! Property-based validation of the flow solvers: the FPTAS is sandwiched
//! between feasibility (≤ exact optimum, ≤ cut bounds) and its
//! approximation guarantee (≥ (1 − 3ε) · exact optimum), and its certified
//! upper bound never falls below the exact optimum.

use ft_graph::Graph;
use ft_mcf::{
    aggregate_commodities, max_concurrent_flow, max_concurrent_flow_exact,
    max_concurrent_flow_reference, node_cut_upper_bound, CapGraph, FptasOptions, Stop, GAP,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Instance {
    n: u32,
    edges: Vec<(u32, u32)>,
    demands: Vec<(usize, usize, f64)>,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (3u32..8).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0u32..1000, (n - 1) as usize);
        let extra = proptest::collection::vec((0u32..n, 0u32..n), 0..6);
        let demands = proptest::collection::vec((0u32..n, 0u32..n, 1u32..4), 1..5);
        (tree, extra, demands).prop_map(move |(tree, extra, demands)| {
            let mut edges: Vec<(u32, u32)> = tree
                .iter()
                .enumerate()
                .map(|(i, &r)| (r % (i as u32 + 1), i as u32 + 1))
                .collect();
            for (a, b) in extra {
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            let demands = demands
                .into_iter()
                .map(|(s, t, d)| (s as usize, t as usize, d as f64))
                .collect();
            Instance { n, edges, demands }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fptas_sandwiched_by_exact(inst in arb_instance()) {
        let g = CapGraph::from_graph(&Graph::from_edges(inst.n as usize, &inst.edges), 1.0);
        let cs = aggregate_commodities(inst.demands.clone());
        prop_assume!(!cs.is_empty());
        let eps = 0.08;
        let exact = max_concurrent_flow_exact(&g, &cs).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let approx = max_concurrent_flow(&g, &cs, FptasOptions::with_epsilon(eps)).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert!(approx.lambda <= exact + 1e-6,
                     "approx {} exceeds exact {}", approx.lambda, exact);
        prop_assert!(approx.lambda >= (1.0 - 3.0 * eps) * exact - 1e-9,
                     "approx {} below guarantee of exact {}", approx.lambda, exact);
        // the certified bound holds from above, and a gap stop is within γ
        prop_assert!(exact <= approx.upper_bound * (1.0 + 1e-9),
                     "exact {} above the certified bound {}", exact, approx.upper_bound);
        if approx.stop == Stop::Gap {
            prop_assert!(approx.lambda >= (1.0 - GAP) * exact - 1e-9,
                         "gap stop at {} for exact {}", approx.lambda, exact);
        }
        // and both respect the node-cut bound
        let cut = node_cut_upper_bound(&g, &cs);
        prop_assert!(exact <= cut + 1e-6);
        prop_assert!(approx.lambda <= cut + 1e-6);
        // certified utilization never exceeds capacity
        for &u in &approx.utilization {
            prop_assert!(u <= 1.0 + 1e-9);
        }
    }

    /// The source-batched solver against the per-commodity reference loop:
    /// both are certified-feasible (1 − 3ε)-approximations, so each must be
    /// ≥ (1 − 3ε)·exact and they must agree within the joint band — the
    /// batching (one tree per source, (1 + ε)-approximate paths) cannot
    /// cost more than the ε guarantee.
    #[test]
    fn batched_matches_reference_within_epsilon(inst in arb_instance()) {
        let g = CapGraph::from_graph(&Graph::from_edges(inst.n as usize, &inst.edges), 1.0);
        let cs = aggregate_commodities(inst.demands.clone());
        prop_assume!(!cs.is_empty());
        let eps = 0.08;
        let opts = FptasOptions::with_epsilon(eps);
        let batched = max_concurrent_flow(&g, &cs, opts).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let reference = max_concurrent_flow_reference(&g, &cs, opts).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert!(!batched.budget_exhausted && !reference.budget_exhausted);
        let (b, r) = (batched.lambda, reference.lambda);
        prop_assert!(b >= (1.0 - 3.0 * eps) * r - 1e-9,
                     "batched {b} below ε band of reference {r}");
        prop_assert!(r >= (1.0 - 3.0 * eps) * b - 1e-9,
                     "reference {r} below ε band of batched {b}");
        // and the batched result still sandwiches against the exact LP
        let exact = max_concurrent_flow_exact(&g, &cs).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert!(b <= exact + 1e-6, "batched {b} exceeds exact {exact}");
        prop_assert!(b >= (1.0 - 3.0 * eps) * exact - 1e-9,
                     "batched {b} below guarantee of exact {exact}");
    }

    /// λ scales inversely with uniform demand scaling.
    #[test]
    fn demand_scaling_inverse(inst in arb_instance(), scale in 1u32..5) {
        let g = CapGraph::from_graph(&Graph::from_edges(inst.n as usize, &inst.edges), 1.0);
        let cs = aggregate_commodities(inst.demands.clone());
        prop_assume!(!cs.is_empty());
        let scaled = aggregate_commodities(
            inst.demands.iter().map(|&(s, t, d)| (s, t, d * scale as f64)));
        let l1 = max_concurrent_flow_exact(&g, &cs).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let l2 = max_concurrent_flow_exact(&g, &scaled).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert!((l1 - l2 * scale as f64).abs() < 1e-5 * (1.0 + l1),
                     "{l1} vs {} × {scale}", l2);
    }

    /// Adding capacity (doubling all links) never hurts: λ at least
    /// doubles... no — exactly doubles, since the polytope scales.
    #[test]
    fn capacity_scaling_linear(inst in arb_instance()) {
        let base = CapGraph::from_graph(&Graph::from_edges(inst.n as usize, &inst.edges), 1.0);
        let doubled = CapGraph::from_graph(&Graph::from_edges(inst.n as usize, &inst.edges), 2.0);
        let cs = aggregate_commodities(inst.demands.clone());
        prop_assume!(!cs.is_empty());
        let l1 = max_concurrent_flow_exact(&base, &cs).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let l2 = max_concurrent_flow_exact(&doubled, &cs).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert!((l2 - 2.0 * l1).abs() < 1e-5 * (1.0 + l2));
    }

    /// Removing a commodity never decreases λ.
    #[test]
    fn fewer_commodities_monotone(inst in arb_instance()) {
        let g = CapGraph::from_graph(&Graph::from_edges(inst.n as usize, &inst.edges), 1.0);
        let cs = aggregate_commodities(inst.demands.clone());
        prop_assume!(cs.len() >= 2);
        let full = max_concurrent_flow_exact(&g, &cs).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let reduced = max_concurrent_flow_exact(&g, &cs[..cs.len() - 1]).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert!(reduced >= full - 1e-6);
    }
}
