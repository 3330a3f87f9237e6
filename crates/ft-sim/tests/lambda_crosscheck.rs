//! Cross-check between the DES's max-min fair allocation and the FPTAS
//! throughput certificate.
//!
//! The DES (`ft_sim::des`) pins each flow to ONE path and shares links max-min
//! fairly; the FPTAS splits flow over ALL paths optimally. Scaling every
//! flow down to the worst-served ratio `λ' = min_f rate_f / demand_f`
//! turns the max-min allocation into a feasible *concurrent* flow, so λ'
//! can never exceed the true optimum — and the FPTAS certificate λ is
//! ≥ (1 − 3ε)·OPT at convergence. The chain that must hold:
//!
//! ```text
//! λ' ≤ OPT ≤ λ / (1 − 3ε)
//! ```
//!
//! A batching or termination bug that inflated λ's certificate would not
//! trip the ft-mcf unit tests on instances where the solvers agree by
//! accident; this pins the batched solver against a *completely
//! independent* allocation model on real topologies.

use ft_control::routing::{EcmpRoutes, KspRoutes, ServerPath};
use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_mcf::{aggregate_commodities, max_concurrent_flow, CapGraph, FptasOptions};
use ft_sim::{max_min_rates, DirectedLink};
use ft_topo::{fat_tree, Network};
use ft_workload::{generate, Locality, TrafficPattern, WorkloadSpec};

/// Mirrors the DES's ServerPath → directed-link conversion (and its
/// per-flow hash), so the pinned paths are exactly what
/// `DesSimulator::run` would use on the unchanged topology.
fn directed_links(path: &ServerPath) -> Vec<DirectedLink> {
    path.edges
        .iter()
        .enumerate()
        .map(|(i, &e)| DirectedLink {
            edge: e,
            forward: path.switches[i].0 < path.switches[i + 1].0,
        })
        .collect()
}

fn flow_hash(idx: usize) -> u64 {
    (idx as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03
}

enum Router {
    Ecmp(EcmpRoutes),
    Ksp(KspRoutes),
}

/// λ' of the max-min allocation over single-path routed flows: the worst
/// `rate / demand` ratio. Same-switch demands are unconstrained and skip.
fn max_min_lambda(router: &Router, demands: &[(usize, usize, f64)]) -> f64 {
    let mut paths = Vec::new();
    let mut demand_of = Vec::new();
    for (idx, &(src_sw, dst_sw, d)) in demands.iter().enumerate() {
        if src_sw == dst_sw {
            continue;
        }
        let (s, t) = (
            ft_graph::NodeId(src_sw as u32),
            ft_graph::NodeId(dst_sw as u32),
        );
        let sp = match router {
            Router::Ecmp(r) => r.path(s, t, flow_hash(idx)),
            Router::Ksp(r) => r.path(s, t, flow_hash(idx)),
        }
        .expect("bench topologies are connected");
        paths.push(directed_links(&sp));
        demand_of.push(d);
    }
    let rates = max_min_rates(&paths, 1.0);
    rates
        .iter()
        .zip(&demand_of)
        .map(|(&r, &d)| r / d)
        .fold(f64::INFINITY, f64::min)
}

fn crosscheck(net: &Network, router: &Router, label: &str) {
    let tm = generate(
        net,
        &WorkloadSpec {
            pattern: TrafficPattern::HotSpot,
            cluster_size: 64,
            locality: Locality::None,
        },
        7,
    );
    let demands = tm.switch_triples(net);
    assert!(!demands.is_empty(), "{label}: workload produced no demands");
    let lambda_sim = max_min_lambda(router, &demands);
    assert!(
        lambda_sim.is_finite() && lambda_sim > 0.0,
        "{label}: degenerate max-min λ' = {lambda_sim}"
    );

    let eps = 0.1;
    let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
    let commodities = aggregate_commodities(demands.iter().copied());
    let sol = max_concurrent_flow(&cg, &commodities, FptasOptions::with_epsilon(eps)).unwrap();
    assert!(!sol.budget_exhausted, "{label}: unlimited run exhausted");
    assert!(sol.lambda > 0.0, "{label}: FPTAS certified λ = 0");

    // Single-path max-min is a feasible concurrent flow → λ' ≤ OPT, and
    // OPT ≤ λ/(1 − 3ε) at convergence. Small float slack only.
    assert!(
        lambda_sim <= sol.lambda / (1.0 - 3.0 * eps) + 1e-9,
        "{label}: max-min λ' = {lambda_sim} exceeds FPTAS bound {} (λ = {})",
        sol.lambda / (1.0 - 3.0 * eps),
        sol.lambda
    );
}

#[test]
fn fat_tree_ecmp_max_min_below_fptas_bound() {
    let net = fat_tree(4).unwrap();
    let router = Router::Ecmp(EcmpRoutes::compute(&net).unwrap());
    crosscheck(&net, &router, "fat-tree k=4 ECMP");
}

#[test]
fn flat_tree_global_rg_ksp_max_min_below_fptas_bound() {
    let net = FlatTree::new(FlatTreeConfig::for_fat_tree_k(6).unwrap())
        .unwrap()
        .materialize(&Mode::GlobalRandom)
        .unwrap();
    let router = Router::Ksp(KspRoutes::new(&net, 4));
    crosscheck(&net, &router, "flat-tree k=6 global-rg KSP");
}
