//! Differential oracle for Yen's k-shortest paths.
//!
//! `k_shortest_paths` runs its spur searches on one CSR with stamped ban
//! arrays and a shared Dijkstra scratch that stops at the destination. The
//! oracle below is the implementation it replaced, kept as the reference:
//! a full `dijkstra_csr_filtered` per spur whose filter asks two
//! `HashSet`s. Both must return the same paths — nodes, edges and length
//! bits — for every (src, dst) pair and k ∈ {1, 4, 8} on random multigraphs
//! with removed, parallel, zero-length and equal-length edges, where ties
//! between equal-length paths are everywhere.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ft_graph::dijkstra::{dijkstra_csr_filtered, DijkstraResult};
use ft_graph::{k_shortest_paths, k_shortest_paths_csr, Csr, EdgeId, Graph, NodeId, Path};
use proptest::prelude::*;
use std::collections::HashSet;

fn from_result(res: &DijkstraResult, t: NodeId) -> Option<Path> {
    Some(Path {
        nodes: res.node_path_to(t)?,
        edges: res.edge_path_to(t)?,
        length: res.dist[t.index()],
    })
}

/// Yen with `HashSet` bans and a full Dijkstra per spur (the reference).
fn oracle_ksp(g: &Graph, src: NodeId, dst: NodeId, k: usize, length: &[f64]) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![Path {
            nodes: vec![src],
            edges: Vec::new(),
            length: 0.0,
        }];
    }
    let csr = Csr::from_graph(g);
    let first = dijkstra_csr_filtered(&csr, src, length, |_, _| true);
    let Some(p0) = from_result(&first, dst) else {
        return Vec::new();
    };
    let mut accepted: Vec<Path> = vec![p0];
    let mut candidates: Vec<Path> = Vec::new();
    let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
    seen.insert(accepted[0].edges.clone());
    while accepted.len() < k {
        let prev = accepted.last().cloned().unwrap();
        for spur_idx in 0..prev.nodes.len() - 1 {
            let spur_node = prev.nodes[spur_idx];
            let root_nodes = &prev.nodes[..=spur_idx];
            let root_edges = &prev.edges[..spur_idx];
            let root_len: f64 = root_edges.iter().map(|e| length[e.index()]).sum();
            let mut banned_edges: HashSet<EdgeId> = HashSet::new();
            for p in &accepted {
                if p.nodes.len() > spur_idx && p.nodes[..=spur_idx] == *root_nodes {
                    if let Some(&e) = p.edges.get(spur_idx) {
                        banned_edges.insert(e);
                    }
                }
            }
            let banned_nodes: HashSet<NodeId> = root_nodes[..spur_idx].iter().copied().collect();
            let res = dijkstra_csr_filtered(&csr, spur_node, length, |u, e| {
                !banned_edges.contains(&e) && !banned_nodes.contains(&u)
            });
            if let Some(spur) = from_result(&res, dst) {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur.edges);
                let total = Path {
                    nodes,
                    edges,
                    length: root_len + spur.length,
                };
                if seen.insert(total.edges.clone()) {
                    candidates.push(total);
                }
            }
        }
        let Some((best_idx, _)) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.length.total_cmp(&b.length))
        else {
            break;
        };
        accepted.push(candidates.swap_remove(best_idx));
    }
    accepted
}

/// A random multigraph with its per-edge lengths. Endpoints repeat
/// (parallel edges), some edges are removed again (tombstoned ids), and
/// lengths come from a small set that includes 0, so equal-length paths
/// and zero-length hops are common.
fn arb_multigraph() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (
        2usize..10,
        proptest::collection::vec((0u32..100, 0u32..100, 0usize..6), 1..28),
        proptest::collection::vec(0u32..100, 0..5),
    )
        .prop_map(|(n, edges, removals)| {
            const LENGTHS: [f64; 6] = [1.0, 1.0, 1.0, 0.0, 0.5, 2.0];
            let mut g = Graph::new(n);
            let mut length = Vec::new();
            for (a, b, l) in edges {
                g.add_edge(NodeId(a % n as u32), NodeId(b % n as u32));
                length.push(LENGTHS[l]);
            }
            for r in removals {
                g.remove_edge(EdgeId(r % length.len() as u32));
            }
            (g, length)
        })
}

/// Asserts identical answers for every ordered pair and k ∈ {1, 4, 8}.
fn assert_matches_oracle(g: &Graph, length: &[f64]) -> Result<(), TestCaseError> {
    let csr = Csr::from_graph(g);
    for src in g.nodes() {
        for dst in g.nodes() {
            for k in [1, 4, 8] {
                let want = oracle_ksp(g, src, dst, k, length);
                let got = k_shortest_paths_csr(&csr, src, dst, k, length);
                prop_assert_eq!(got.len(), want.len(), "{:?}→{:?} k={}", src, dst, k);
                for (a, b) in got.iter().zip(&want) {
                    prop_assert_eq!(&a.nodes, &b.nodes, "{:?}→{:?} k={}", src, dst, k);
                    prop_assert_eq!(&a.edges, &b.edges, "{:?}→{:?} k={}", src, dst, k);
                    prop_assert_eq!(a.length.to_bits(), b.length.to_bits());
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_multigraphs_match_oracle((g, length) in arb_multigraph()) {
        assert_matches_oracle(&g, &length)?;
    }

    #[test]
    fn unit_length_multigraphs_match_oracle((g, length) in arb_multigraph()) {
        // all-equal lengths: every tie in the heap and in the candidate
        // pool is decided by the tie-break alone
        let unit = vec![1.0; length.len()];
        assert_matches_oracle(&g, &unit)?;
    }
}

#[test]
fn graph_wrapper_matches_csr_entry_point() {
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (0, 2)]);
    let len = vec![1.0; g.edge_id_bound()];
    let csr = Csr::from_graph(&g);
    for k in [1, 4, 8] {
        assert_eq!(
            k_shortest_paths(&g, NodeId(0), NodeId(3), k, &len),
            k_shortest_paths_csr(&csr, NodeId(0), NodeId(3), k, &len)
        );
    }
}

#[test]
fn out_of_range_endpoints_have_no_paths() {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
    let csr = Csr::from_graph(&g);
    let len = vec![1.0; g.edge_id_bound()];
    assert!(k_shortest_paths_csr(&csr, NodeId(0), NodeId(7), 4, &len).is_empty());
    assert!(k_shortest_paths_csr(&csr, NodeId(7), NodeId(0), 4, &len).is_empty());
}
