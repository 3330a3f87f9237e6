//! End-to-end control-plane integration: conversions, routing and
//! forwarding across crates.

use flat_tree::control::{compile_rules, Controller, EcmpRoutes, Router, Zone};
use flat_tree::core::{FlatTreeConfig, Mode, PodMode};
use flat_tree::graph::NodeId;

#[test]
fn conversion_cycle_preserves_routability() {
    let mut ctl = Controller::new(FlatTreeConfig::for_fat_tree_k(6).unwrap()).unwrap();
    let cycle = [
        Mode::GlobalRandom,
        Mode::LocalRandom,
        Mode::Clos,
        Mode::GlobalRandom,
        Mode::Clos,
    ];
    for mode in cycle {
        ctl.convert(mode.clone()).unwrap();
        let net = ctl.network();
        net.validate().unwrap();
        // every server pair must be routable under the mode's router
        let servers: Vec<NodeId> = net.servers().collect();
        let pairs = [
            (servers[0], servers[servers.len() - 1]),
            (servers[3], servers[servers.len() / 2]),
        ];
        match ctl.routing().unwrap() {
            Router::Ecmp(r) => {
                for (a, b) in pairs {
                    let p = r
                        .path(net.attachment(a), net.attachment(b), 5)
                        .expect("ECMP path exists");
                    assert!(p.hops() >= 2);
                }
            }
            Router::Ksp(r) => {
                for (a, b) in pairs {
                    let paths = r.paths(net.attachment(a), net.attachment(b));
                    assert!(!paths.is_empty(), "KSP must find paths in {mode:?}");
                    assert!(paths.len() <= 8);
                }
            }
        }
    }
    assert_eq!(ctl.conversions(), 5);
}

#[test]
fn forwarding_tables_work_after_zone_reorganization() {
    let mut ctl = Controller::new(FlatTreeConfig::for_fat_tree_k(8).unwrap()).unwrap();
    ctl.organize_zones(&[
        Zone::new("a", 0..4, PodMode::GlobalRandom),
        Zone::new("b", 4..8, PodMode::LocalRandom),
    ])
    .unwrap();
    let net = ctl.network();
    // ECMP-style rules still route the hybrid topology (shortest paths are
    // well-defined on any connected graph)
    let routes = EcmpRoutes::compute(net).unwrap();
    let tables = compile_rules(net, &routes);
    let s = net.num_switches() as u32;
    for (src, dst) in [(0u32, s - 1), (5, s / 2), (s - 3, 2)] {
        let path =
            flat_tree::control::rules::forward(&tables, NodeId(src), NodeId(dst), 11).unwrap();
        assert_eq!(path.first(), Some(&NodeId(src)));
        assert_eq!(path.last(), Some(&NodeId(dst)));
        assert_eq!(
            path.len() as u32 - 1,
            routes.distance(NodeId(src), NodeId(dst))
        );
    }
}

#[test]
fn plans_compose_transitively() {
    // plan(A→B) + plan(B→C) touches at least every converter of plan(A→C)
    let ctl = Controller::new(FlatTreeConfig::for_fat_tree_k(8).unwrap()).unwrap();
    let ft = ctl.flat_tree();
    let a = ft.resolve(&Mode::Clos).unwrap();
    let b = ft.resolve(&Mode::LocalRandom).unwrap();
    let c = ft.resolve(&Mode::GlobalRandom).unwrap();
    let ab = flat_tree::control::plan_transition(ft, &a, &b).unwrap();
    let bc = flat_tree::control::plan_transition(ft, &b, &c).unwrap();
    let ac = flat_tree::control::plan_transition(ft, &a, &c).unwrap();
    assert!(ab.converter_ops() + bc.converter_ops() >= ac.converter_ops());
    // and link churn is consistent: A→C churn ≤ A→B + B→C churn
    assert!(ac.links_added.len() <= ab.links_added.len() + bc.links_added.len());
}

#[test]
fn advisor_matches_evaluated_best_mode() {
    use flat_tree::control::advisor::{recommend_mode, summarize};
    use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};
    let ctl = Controller::new(FlatTreeConfig::for_fat_tree_k(10).unwrap()).unwrap();
    let net = ctl.network();
    // small, pod-local clusters → advisor should say LocalRandom
    let spec = WorkloadSpec {
        pattern: TrafficPattern::AllToAll,
        cluster_size: 20,
        locality: Locality::Weak,
    };
    let tm = generate(net, &spec, 4);
    let rec = recommend_mode(&summarize(net, &tm));
    assert_eq!(rec, Mode::LocalRandom);
}
