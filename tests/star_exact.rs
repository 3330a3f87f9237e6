//! The exact star stage (`ft_mcf::star_exact`) against the other solvers:
//! the simplex on k = 4 hot spots, the FPTAS's certificate on one-cluster
//! hot spots at k = 4–16, and the instances it must hand back to the
//! FPTAS untouched.

use flat_tree::core::{PodMode, Topology};
use flat_tree::mcf::{
    aggregate_commodities, max_concurrent_flow, max_concurrent_flow_exact, star_exact, CapGraph,
    Commodity, FptasOptions, McfError, Stop, GAP,
};
use flat_tree::metrics::throughput::{throughput_on_commodities, ThroughputOptions};
use flat_tree::topo::{DeviceKind, Network, NetworkBuilder};
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

const TOPOLOGIES: [Topology; 6] = [
    Topology::FatTree,
    Topology::RandomGraph,
    Topology::TwoStage,
    Topology::FlatTree(PodMode::Clos),
    Topology::FlatTree(PodMode::LocalRandom),
    Topology::FlatTree(PodMode::GlobalRandom),
];

const LOCALITIES: [Locality; 2] = [Locality::Strong, Locality::None];

const EPSILON: f64 = 0.15;

/// Switch-level commodities of hot-spot clusters of `cluster` servers.
fn hotspot(net: &Network, cluster: usize, locality: Locality, seed: u64) -> Vec<Commodity> {
    let spec = WorkloadSpec {
        pattern: TrafficPattern::HotSpot,
        cluster_size: cluster,
        locality,
    };
    aggregate_commodities(generate(net, &spec, seed).switch_triples(net))
}

fn cap_graph(net: &Network) -> CapGraph {
    CapGraph::from_graph(&net.switch_graph(), 1.0)
}

/// Keeps every `step`-th leaf of a star (both directions), so that the
/// dense simplex stays small; a subset of a star's leaves is a star.
fn thin(cs: &[Commodity], hub: usize, step: usize) -> Vec<Commodity> {
    let leaf = |c: &Commodity| if c.src == hub { c.dst } else { c.src };
    let mut leaves: Vec<usize> = cs.iter().map(leaf).collect();
    leaves.sort_unstable();
    leaves.dedup();
    let kept: Vec<usize> = leaves.into_iter().step_by(step).collect();
    cs.iter()
        .copied()
        .filter(|c| kept.contains(&leaf(c)))
        .collect()
}

#[test]
fn star_matches_exact_simplex_on_k4_hotspots() {
    for topology in TOPOLOGIES {
        for locality in LOCALITIES {
            for seed in 1..=2 {
                let net = topology.build(4, seed).unwrap();
                let g = cap_graph(&net);
                let cs = hotspot(&net, 1000, locality, seed);
                let what = format!("{topology:?} {locality:?} seed {seed}");
                let star = star_exact(&g, &cs).unwrap_or_else(|| panic!("{what}: not a star"));
                let cs = thin(&cs, star.hub, 2);
                let star = star_exact(&g, &cs).unwrap();
                let exact = max_concurrent_flow_exact(&g, &cs).unwrap();
                assert!(
                    (star.lambda - exact).abs() <= 1e-9 * exact,
                    "{what}: star λ {} vs simplex {exact}",
                    star.lambda
                );
                assert!(
                    (star.upper_bound - exact).abs() <= 1e-9 * exact,
                    "{what}: star UB {} vs simplex {exact}",
                    star.upper_bound
                );
            }
        }
    }
}

/// The FPTAS's certificate against the exact optimum of one-cluster hot
/// spots: λ ≤ λ*, λ ≥ (1 − γ)·λ* on a gap stop, and UB ≥ λ*. The k ≥ 10
/// cases run only in optimized builds.
#[test]
fn fptas_certificate_holds_against_the_star_optimum() {
    let ks: &[usize] = if cfg!(debug_assertions) {
        &[4, 6, 8]
    } else {
        &[4, 6, 8, 10, 12, 16]
    };
    for &k in ks {
        for topology in TOPOLOGIES {
            for locality in LOCALITIES {
                for seed in 1..=2 {
                    let net = topology.build(k, seed).unwrap();
                    let g = cap_graph(&net);
                    let cs = hotspot(&net, 1000, locality, seed);
                    let what = format!("k={k} {topology:?} {locality:?} seed {seed}");
                    let star = star_exact(&g, &cs).unwrap_or_else(|| panic!("{what}: not a star"));
                    let opt = star.lambda;
                    assert!(opt > 0.0 && opt >= (1.0 - 1e-9) * star.upper_bound);
                    let sol =
                        max_concurrent_flow(&g, &cs, FptasOptions::with_epsilon(EPSILON)).unwrap();
                    assert!(
                        sol.lambda <= opt * (1.0 + 1e-9),
                        "{what}: FPTAS λ {} above λ* {opt}",
                        sol.lambda
                    );
                    assert!(
                        sol.upper_bound >= opt * (1.0 - 1e-9),
                        "{what}: FPTAS UB {} below λ* {opt}",
                        sol.upper_bound
                    );
                    if sol.stop == Stop::Gap {
                        assert!(
                            sol.lambda >= (1.0 - GAP) * opt,
                            "{what}: gap stop at λ {} against λ* {opt}",
                            sol.lambda
                        );
                    }
                }
            }
        }
    }
}

/// `throughput_on_commodities` on a refused instance is the FPTAS's answer,
/// bit for bit.
fn assert_fptas_unchanged(what: &str, net: &Network, cs: &[Commodity]) {
    let g = cap_graph(net);
    assert_eq!(star_exact(&g, cs), None, "{what}: must be refused");
    let r = throughput_on_commodities(net, cs, ThroughputOptions::fptas(EPSILON)).unwrap();
    let sol = max_concurrent_flow(&g, cs, FptasOptions::with_epsilon(EPSILON)).unwrap();
    assert!(!r.exact, "{what}");
    assert_eq!(r.lambda.to_bits(), sol.lambda.to_bits(), "{what}");
    assert_eq!(r.upper_bound.to_bits(), sol.upper_bound.to_bits(), "{what}");
    assert_eq!(
        (r.stop, r.budget_exhausted),
        (sol.stop, sol.budget_exhausted),
        "{what}"
    );
}

#[test]
fn refused_instances_run_the_fptas_unchanged() {
    let net = Topology::FatTree.build(4, 1).unwrap();
    // several hot-spot clusters: one hub each
    let multi = hotspot(&net, 4, Locality::None, 3);
    assert_fptas_unchanged("four clusters", &net, &multi);
    let star = hotspot(&net, 1000, Locality::Strong, 1);
    let hub = star_exact(&cap_graph(&net), &star).unwrap().hub;
    // two hubs: one commodity between two leaves
    let (a, b) = (star[0], star[2]);
    let leaf = |c: Commodity| if c.src == hub { c.dst } else { c.src };
    assert_ne!(leaf(a), leaf(b));
    let mut two_hubs = star.clone();
    two_hubs.push(Commodity {
        src: leaf(a),
        dst: leaf(b),
        demand: 1.0,
    });
    assert_fptas_unchanged("two hubs", &net, &two_hubs);
    // unmirrored demands: one leaf sends twice what it receives
    let mut unmirrored = star.clone();
    unmirrored[0].demand *= 2.0;
    assert_fptas_unchanged("unmirrored", &net, &unmirrored);
}

#[test]
fn errors_and_a_disconnected_leaf_keep_their_outcomes() {
    let net = Topology::FatTree.build(4, 1).unwrap();
    let star = hotspot(&net, 1000, Locality::Strong, 1);
    let err = throughput_on_commodities(&net, &star, ThroughputOptions::fptas(0.7)).unwrap_err();
    assert_eq!(err, McfError::InvalidEpsilon { epsilon: 0.7 });
    let mut bad = star.clone();
    bad[0].dst = bad[0].src;
    let err = throughput_on_commodities(&net, &bad, ThroughputOptions::fptas(EPSILON)).unwrap_err();
    assert!(matches!(err, McfError::InvalidCommodity { .. }), "{err:?}");

    // switch 2 hosts a server but has no link: λ = UB = 0, as the
    // FPTAS's reachability pre-check reports it
    let mut b = NetworkBuilder::new("disconnected leaf");
    let s: Vec<_> = (0..3)
        .map(|_| b.add_switch(DeviceKind::Generic, 4, None).unwrap())
        .collect();
    b.add_link(s[0], s[1]).unwrap();
    for &sw in &s {
        let host = b.add_server(None);
        b.add_link(host, sw).unwrap();
    }
    let net = b.build().unwrap();
    let cs = [(0, 1), (0, 2), (1, 0), (2, 0)].map(|(src, dst)| Commodity {
        src,
        dst,
        demand: 1.0,
    });
    let r = throughput_on_commodities(&net, &cs, ThroughputOptions::fptas(EPSILON)).unwrap();
    assert_eq!((r.lambda, r.upper_bound), (0.0, 0.0));
    assert!(r.exact && r.stop == Stop::Gap && !r.budget_exhausted);
    let sol =
        max_concurrent_flow(&cap_graph(&net), &cs, FptasOptions::with_epsilon(EPSILON)).unwrap();
    assert_eq!(
        (sol.lambda, sol.upper_bound, sol.stop),
        (0.0, 0.0, Stop::Gap)
    );
}
