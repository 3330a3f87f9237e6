//! The FPTAS certificate on whole topologies, against the exact simplex:
//! every solve must report λ ≤ OPT ≤ UB, and a gap stop must put λ within
//! 1 % of OPT. An over-estimated α would push UB below OPT and make the
//! gap stop claim more than it proved; the one-sided (1 − 3ε) band alone
//! would not notice.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::lp::{LpOutcome, LpProblem, Var};
use flat_tree::mcf::{
    aggregate_commodities, max_concurrent_flow, max_concurrent_flow_exact, CapGraph, Commodity,
    FptasOptions, Stop, GAP,
};
use flat_tree::metrics::throughput::{throughput_all_to_all, SolverKind, ThroughputOptions};
use flat_tree::topo::{
    fat_tree, jellyfish_matching_fat_tree, two_stage_random_graph, Network, TwoStageParams,
};
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

/// `λ ≤ exact ≤ UB`, and `λ ≥ (1 − γ)·exact` on a gap stop.
fn check(what: &str, lambda: f64, upper_bound: f64, stop: Stop, exact: f64) {
    assert!(
        lambda <= exact + 1e-6,
        "{what}: λ {lambda} above exact {exact}"
    );
    assert!(
        exact <= upper_bound * (1.0 + 1e-9),
        "{what}: exact {exact} above the certified bound {upper_bound}"
    );
    if stop == Stop::Gap {
        assert!(
            lambda >= (1.0 - GAP) * exact - 1e-9,
            "{what}: gap stop at λ {lambda}, exact {exact}"
        );
    }
}

/// Switch-level commodities of `pattern`, subsampled to ~15 so the dense
/// simplex stays fast.
fn commodities(net: &Network, pattern: TrafficPattern, seed: u64) -> Vec<Commodity> {
    let spec = WorkloadSpec {
        pattern,
        cluster_size: 8,
        locality: Locality::Strong,
    };
    let cs = aggregate_commodities(generate(net, &spec, seed).switch_triples(net));
    let step = cs.len().div_ceil(15).max(1);
    cs.into_iter().step_by(step).collect()
}

#[test]
fn certified_bound_sandwiches_exact_on_each_topology() {
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
    let pods = ft.geometry().pods;
    let nets = [
        ("fat-tree", fat_tree(4).unwrap()),
        ("jellyfish", jellyfish_matching_fat_tree(4, 1).unwrap()),
        (
            "two-stage RG",
            two_stage_random_graph(TwoStageParams::matching_fat_tree(4).unwrap(), 1).unwrap(),
        ),
        (
            "zone-converted flat-tree",
            ft.materialize(&Mode::two_zone(pods, pods / 2)).unwrap(),
        ),
    ];
    for (name, net) in &nets {
        let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
        for pattern in [TrafficPattern::AllToAll, TrafficPattern::HotSpot] {
            let cs = commodities(net, pattern, 3);
            assert!(!cs.is_empty(), "{name}: empty instance");
            let exact = max_concurrent_flow_exact(&cg, &cs).unwrap();
            for eps in [0.15, 0.05] {
                let sol = max_concurrent_flow(&cg, &cs, FptasOptions::with_epsilon(eps)).unwrap();
                let what = format!("{name} {pattern:?} ε={eps}");
                check(&what, sol.lambda, sol.upper_bound, sol.stop, exact);
                assert!(!sol.budget_exhausted, "{what}: unbudgeted run exhausted");
            }
        }
    }
}

/// The exact λ from the source-aggregated LP: one flow per source that
/// delivers `λ·d_j` at each of its destinations. Any such flow splits into
/// per-commodity paths, so the optimum equals the per-commodity LP's, on
/// #sources × arcs variables instead of #commodities × arcs.
fn exact_by_source(g: &CapGraph, cs: &[Commodity]) -> f64 {
    let mut sources: Vec<usize> = cs.iter().map(|c| c.src).collect();
    sources.sort_unstable();
    sources.dedup();
    let mut lp = LpProblem::new();
    let lambda = lp.add_var(1.0);
    let flow: Vec<Vec<Var>> = sources
        .iter()
        .map(|_| (0..g.arc_count()).map(|_| lp.add_var(0.0)).collect())
        .collect();
    for a in 0..g.arc_count() {
        let terms: Vec<(Var, f64)> = flow.iter().map(|f| (f[a], 1.0)).collect();
        lp.add_le(&terms, g.arc(a).cap);
    }
    for (f, &s) in flow.iter().zip(&sources) {
        for v in (0..g.node_count()).filter(|&v| v != s) {
            // inflow − outflow = λ·(demand of s at v)
            let mut terms: Vec<(Var, f64)> = (0..g.arc_count())
                .filter(|&a| g.arc(a).to == v)
                .map(|a| (f[a], 1.0))
                .collect();
            terms.extend(g.out_arcs(v).iter().map(|&a| (f[a as usize], -1.0)));
            let demand: f64 = cs
                .iter()
                .filter(|c| c.src == s && c.dst == v)
                .map(|c| c.demand)
                .sum();
            terms.push((lambda, -demand));
            lp.add_eq(&terms, 0.0);
        }
    }
    match lp.solve() {
        LpOutcome::Optimal(sol) => sol.value(lambda),
        other => panic!("source-aggregated LP: {other:?}"),
    }
}

/// The symmetry quotient of the Clos all-to-all: its bound must hold for
/// the full instance, which the simplex solves unaggregated.
#[test]
fn aggregated_clos_all_to_all_bound_sandwiches_exact() {
    let net = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap())
        .unwrap()
        .materialize(&Mode::Clos)
        .unwrap();
    let opts = ThroughputOptions::fptas_with(0.15, SolverKind::Aggregated);
    let r = throughput_all_to_all(&net, opts).unwrap();
    assert!(r.aggregated.is_some(), "the quotient must engage");
    assert!(!r.budget_exhausted);
    let counts = net.server_counts();
    let cs = aggregate_commodities((0..counts.len()).flat_map(|s| {
        let counts = &counts;
        (0..counts.len()).map(move |t| (s, t, f64::from(counts[s]) * f64::from(counts[t])))
    }));
    assert_eq!(cs.len(), r.commodities);
    let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
    let exact = exact_by_source(&cg, &cs);
    check(
        "aggregated Clos all-to-all",
        r.lambda,
        r.upper_bound,
        r.stop,
        exact,
    );
}

/// The source-aggregated LP agrees with the per-commodity one.
#[test]
fn source_aggregated_lp_matches_per_commodity_lp() {
    let net = jellyfish_matching_fat_tree(4, 2).unwrap();
    let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
    let cs = commodities(&net, TrafficPattern::AllToAll, 5);
    let per_commodity = max_concurrent_flow_exact(&cg, &cs).unwrap();
    let by_source = exact_by_source(&cg, &cs);
    assert!(
        (per_commodity - by_source).abs() <= 1e-7 * per_commodity.max(1.0),
        "{per_commodity} vs {by_source}"
    );
}
