//! The routing gap: the paper evaluates throughput under *optimal routing*
//! (§3.1) but prescribes k-shortest-paths routing for deployment (§2.6).
//! These tests quantify the gap end-to-end and pin its expected shape. The
//! path sets come from `ft_graph::k_shortest_paths`, the Yen that routes
//! the simulator's flows, so the gap measured is the simulator's router's.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::graph::{id32, k_shortest_paths, Graph, NodeId};
use flat_tree::mcf::{
    aggregate_commodities, max_concurrent_flow_exact, max_concurrent_flow_on_paths, ArcPath,
    CapGraph, Commodity,
};
use flat_tree::topo::Network;
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

/// Up to `k` hop-shortest paths of `c`, as arcs of `CapGraph::from_graph(g)`:
/// edge `e` is arc `2e` in its stored direction and `2e + 1` against it.
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

fn setup(net: &Network, seed: u64) -> (Graph, CapGraph, Vec<Commodity>) {
    let spec = WorkloadSpec {
        pattern: TrafficPattern::AllToAll,
        cluster_size: 8,
        locality: Locality::Strong,
    };
    let tm = generate(net, &spec, seed);
    let sg = net.switch_graph();
    let cg = CapGraph::from_graph(&sg, 1.0);
    let mut cs = aggregate_commodities(tm.switch_triples(net));
    // subsample: the exact LP is O((K·A)³)-ish in the dense simplex; a
    // spread of ~15 commodities keeps the test meaningful and fast
    if cs.len() > 15 {
        let step = cs.len().div_ceil(15);
        cs = cs.into_iter().step_by(step).collect();
    }
    (sg, cg, cs)
}

#[test]
fn ksp_routing_within_modest_gap_of_optimal() {
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
    for mode in [Mode::Clos, Mode::GlobalRandom] {
        let net = ft.materialize(&mode).unwrap();
        let (sg, cg, cs) = setup(&net, 3);
        if cs.is_empty() {
            continue;
        }
        let optimal = max_concurrent_flow_exact(&cg, &cs).unwrap();
        let paths: Vec<_> = cs.iter().map(|c| ksp(&sg, c, 8)).collect();
        let routed = max_concurrent_flow_on_paths(&cg, &cs, &paths).unwrap();
        assert!(
            routed <= optimal + 1e-6,
            "{mode:?}: path-restricted {routed} beats optimal {optimal}"
        );
        assert!(
            routed >= 0.6 * optimal,
            "{mode:?}: 8 shortest paths lose too much: {routed} vs {optimal}"
        );
    }
}

#[test]
fn more_paths_monotonically_close_the_gap() {
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
    let net = ft.materialize(&Mode::GlobalRandom).unwrap();
    let (sg, cg, cs) = setup(&net, 5);
    let optimal = max_concurrent_flow_exact(&cg, &cs).unwrap();
    let mut prev = 0.0;
    for k in [1usize, 2, 8] {
        let paths: Vec<_> = cs.iter().map(|c| ksp(&sg, c, k)).collect();
        let routed = max_concurrent_flow_on_paths(&cg, &cs, &paths).unwrap();
        assert!(
            routed >= prev - 1e-9,
            "k = {k}: λ regressed from {prev} to {routed}"
        );
        assert!(routed <= optimal + 1e-6);
        prev = routed;
    }
}
