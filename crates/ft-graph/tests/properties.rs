//! Property-based tests for the graph substrate: algorithm agreement on
//! random graphs.

use ft_graph::{
    bfs_distances, dijkstra, k_shortest_paths, Csr, DistMatrix, FlowNetwork, Graph, NodeId,
    UNREACHABLE, UNREACHABLE16,
};
use proptest::prelude::*;

/// Random connected graph: a random spanning tree plus extra random edges.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..20,
        proptest::collection::vec((0u32..1000, 0u32..1000), 0..30),
    )
        .prop_map(|(n, extras)| {
            let mut g = Graph::new(n);
            for v in 1..n as u32 {
                // parent chosen deterministically from the extras entropy
                let p = extras
                    .get(v as usize % extras.len().max(1))
                    .map(|&(a, _)| a % v)
                    .unwrap_or(0);
                g.add_edge(NodeId(p), NodeId(v));
            }
            for (a, b) in extras {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra under unit lengths equals BFS.
    #[test]
    fn dijkstra_unit_equals_bfs(g in arb_connected_graph()) {
        let len = vec![1.0; g.edge_id_bound()];
        let d = dijkstra(&g, NodeId(0), &len);
        let b = bfs_distances(&g, NodeId(0));
        #[allow(clippy::needless_range_loop)]
        for v in 0..g.node_count() {
            if b[v] == UNREACHABLE {
                prop_assert!(d.dist[v].is_infinite());
            } else {
                prop_assert_eq!(d.dist[v] as u32, b[v]);
            }
        }
    }

    /// BFS distances satisfy the triangle inequality over edges: adjacent
    /// nodes differ by at most 1.
    #[test]
    fn bfs_lipschitz_over_edges(g in arb_connected_graph()) {
        let d = bfs_distances(&g, NodeId(0));
        for (_, a, b) in g.edges() {
            let (da, db) = (d[a.index()], d[b.index()]);
            if da != UNREACHABLE && db != UNREACHABLE {
                prop_assert!(da.abs_diff(db) <= 1);
            }
        }
    }

    /// Yen's paths are distinct, loopless, sorted, and the first equals
    /// the BFS shortest path length.
    #[test]
    fn yen_properties(g in arb_connected_graph(), k in 1usize..6) {
        let len = vec![1.0; g.edge_id_bound()];
        let src = NodeId(0);
        let dst = NodeId(g.node_count() as u32 - 1);
        let paths = k_shortest_paths(&g, src, dst, k, &len);
        prop_assert!(paths.len() <= k);
        let bfs = bfs_distances(&g, src);
        if bfs[dst.index()] != UNREACHABLE {
            prop_assert!(!paths.is_empty());
            prop_assert_eq!(paths[0].hops() as u32, bfs[dst.index()]);
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].length <= w[1].length + 1e-9);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            prop_assert!(seen.insert(p.edges.clone()), "duplicate path");
            let mut nodes = std::collections::HashSet::new();
            for n in &p.nodes {
                prop_assert!(nodes.insert(*n), "loop in path");
            }
        }
    }

    /// Max-flow is bounded by both endpoint degrees (unit capacities) and
    /// is symmetric for undirected constructions.
    #[test]
    fn maxflow_bounded_and_symmetric(g in arb_connected_graph()) {
        let src = 0usize;
        let dst = g.node_count() - 1;
        prop_assume!(src != dst);
        let build = || {
            let mut f = FlowNetwork::new(g.node_count());
            for (_, a, b) in g.edges() {
                f.add_edge(a.index(), b.index(), 1.0);
                f.add_edge(b.index(), a.index(), 1.0);
            }
            f
        };
        let fwd = build().max_flow(src, dst);
        let bwd = build().max_flow(dst, src);
        prop_assert!((fwd - bwd).abs() < 1e-9, "undirected flow must be symmetric");
        let deg_src = g.degree(NodeId(src as u32)) as f64;
        let deg_dst = g.degree(NodeId(dst as u32)) as f64;
        prop_assert!(fwd <= deg_src.min(deg_dst) + 1e-9);
        // connected graphs carry at least one unit
        let bfs = bfs_distances(&g, NodeId(0));
        if bfs[dst] != UNREACHABLE {
            prop_assert!(fwd >= 1.0 - 1e-9);
        }
    }

    /// The compact `u16` matrix from the bitset kernel agrees entry for
    /// entry with the `Graph` BFS oracle (sentinel widths aside) on random
    /// graphs for every worker count — the DESIGN.md §10 determinism
    /// contract — and its checksum is the plain wrapping sum of the finite
    /// entries on connected inputs.
    #[test]
    fn dist_matrix_equals_all_pairs(g in arb_connected_graph(), workers in 1usize..9) {
        let csr = Csr::from_graph(&g);
        let compact = match DistMatrix::compute_csr_with_threads(&csr, workers) {
            Ok(m) => m,
            // arb graphs have < 20 nodes, far inside the u16 range
            Err(e) => return Err(TestCaseError::Fail(format!("unexpected overflow: {e}"))),
        };
        let mut sum = 0u64;
        for v in g.nodes() {
            for (w, &oracle) in bfs_distances(&g, v).iter().enumerate() {
                let got = compact.get(v.index(), w);
                if oracle == UNREACHABLE {
                    prop_assert_eq!(got, UNREACHABLE16, "sentinel lost at ({:?}, {})", v, w);
                } else {
                    prop_assert_eq!(u32::from(got), oracle, "pair ({:?}, {})", v, w);
                    sum = sum.wrapping_add(u64::from(got));
                }
            }
        }
        prop_assert_eq!(compact.checksum(), sum);
    }

    /// Removing an edge never shortens any distance; restoring it returns
    /// the original distances exactly.
    #[test]
    fn removal_monotonicity(g in arb_connected_graph(), pick in any::<u32>()) {
        let mut g = g;
        let before = bfs_distances(&g, NodeId(0));
        let edges: Vec<_> = g.edges().map(|(e, _, _)| e).collect();
        prop_assume!(!edges.is_empty());
        let victim = edges[pick as usize % edges.len()];
        g.remove_edge(victim);
        let after = bfs_distances(&g, NodeId(0));
        for v in 0..g.node_count() {
            prop_assert!(after[v] >= before[v]);
        }
        g.restore_edge(victim);
        prop_assert_eq!(bfs_distances(&g, NodeId(0)), before);
    }
}
