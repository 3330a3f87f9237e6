//! Differential oracle for Yen's k-shortest paths.
//!
//! `k_shortest_paths` runs its spur searches on one CSR with stamped ban
//! arrays and a shared Dijkstra scratch that stops at the destination. The
//! oracle below is the implementation it replaced, kept as the reference:
//! a full `dijkstra_csr_filtered` per spur whose filter asks two
//! `HashSet`s. Both must return the same paths — nodes, edges and length
//! bits — for every (src, dst) pair and k ∈ {1, 4, 8} on random multigraphs
//! with removed, parallel, zero-length and equal-length edges, where ties
//! between equal-length paths are everywhere; and for sampled pairs on
//! connected multigraphs of the DES's size, on unit lengths and on
//! non-dyadic ones, where the bounded spur search's forward sums and the
//! reverse sums of its bound round differently; and for every pair on
//! small multigraphs whose links are bundles of parallel edges of
//! unequal length, where two paths can share their nodes but not their
//! edges.

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

/// Length palette of the rounding cases. None of 0.1, 0.2, 0.3, 1/3 and
/// 0.7 is dyadic, so a path's length summed from its source and summed
/// back from its destination can differ in the last bits; 0 makes
/// zero-length spur paths, whose bound has no relative slack.
const NON_DYADIC: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7];

/// (src, dst) pairs sampled per DES-scale graph.
const PAIRS: usize = 8;

/// A connected multigraph of 20–80 nodes at mean degree 4, 6 or 8 — a
/// random spanning tree plus random extra edges, so parallel edges and
/// self-loops occur — with a [`NON_DYADIC`] index per edge and [`PAIRS`]
/// sampled (src, dst) pairs.
fn arb_des_scale() -> impl Strategy<Value = (Graph, Vec<usize>, Vec<(NodeId, NodeId)>)> {
    (20usize..81, 2usize..5)
        .prop_flat_map(|(n, half_degree)| {
            let edges = n * half_degree;
            (
                Just(n),
                proptest::collection::vec(0u32..1 << 20, n - 1),
                proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20), edges - (n - 1)),
                proptest::collection::vec(0usize..NON_DYADIC.len(), edges),
                proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20), PAIRS),
            )
        })
        .prop_map(|(n, tree, extra, palette, pairs)| {
            let n = n as u32;
            let mut g = Graph::new(n as usize);
            for (v, p) in (1..n).zip(tree) {
                g.add_edge(NodeId(v), NodeId(p % v)); // v hangs off an earlier node
            }
            for (a, b) in extra {
                g.add_edge(NodeId(a % n), NodeId(b % n));
            }
            let pairs = pairs
                .into_iter()
                .map(|(s, d)| (NodeId(s % n), NodeId(d % n)))
                .collect();
            (g, palette, pairs)
        })
}

/// A connected multigraph of 4–12 nodes whose links come in bundles of
/// 1–3 parallel edges, each edge with its own length from
/// [`BUNDLE_LENGTHS`]. Two paths then often share their nodes but not
/// their edges, which is where Yen's node-prefix bans and Lawler's skip
/// could part ways.
fn arb_parallel_bundles() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (4usize..13)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0u32..1 << 20, n - 1),
                proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20), 0..n),
                proptest::collection::vec((1usize..4, 0usize..BUNDLE_LENGTHS.len()), 2 * n),
            )
        })
        .prop_map(|(n, tree, extra, bundles)| {
            let n = n as u32;
            let links = (1..n)
                .zip(tree)
                .map(|(v, p)| (v, p % v)) // v hangs off an earlier node
                .chain(extra.into_iter().map(|(a, b)| (a % n, b % n)));
            let mut g = Graph::new(n as usize);
            let mut length = Vec::new();
            for ((a, b), &(copies, first)) in links.zip(bundles.iter().cycle()) {
                for c in 0..copies {
                    g.add_edge(NodeId(a), NodeId(b));
                    length.push(BUNDLE_LENGTHS[(first + c) % BUNDLE_LENGTHS.len()]);
                }
            }
            (g, length)
        })
}

/// Length palette of the parallel bundles: consecutive entries differ,
/// so the edges of one bundle have different lengths.
const BUNDLE_LENGTHS: [f64; 6] = [1.0, 1.5, 2.0, 1.0, 2.25, 0.5];

/// Asserts identical answers for every given pair and k ∈ {1, 4, 8}.
fn assert_pairs_match_oracle(
    g: &Graph,
    length: &[f64],
    pairs: &[(NodeId, NodeId)],
) -> Result<(), TestCaseError> {
    let csr = Csr::from_graph(g);
    for &(src, dst) in pairs {
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
    Ok(())
}

/// Asserts identical answers for every ordered pair and k ∈ {1, 4, 8}.
fn assert_matches_oracle(g: &Graph, length: &[f64]) -> Result<(), TestCaseError> {
    let pairs: Vec<(NodeId, NodeId)> = g
        .nodes()
        .flat_map(|src| g.nodes().map(move |dst| (src, dst)))
        .collect();
    assert_pairs_match_oracle(g, length, &pairs)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn parallel_bundles_of_unequal_length_match_oracle((g, length) in arb_parallel_bundles()) {
        assert_matches_oracle(&g, &length)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn des_scale_unit_lengths_match_oracle((g, palette, pairs) in arb_des_scale()) {
        // the DES's lengths: every sum is exact, and ties are everywhere
        let unit = vec![1.0; palette.len()];
        assert_pairs_match_oracle(&g, &unit, &pairs)?;
    }

    #[test]
    fn des_scale_non_dyadic_lengths_match_oracle((g, palette, pairs) in arb_des_scale()) {
        let length: Vec<f64> = palette.iter().map(|&i| NON_DYADIC[i]).collect();
        assert_pairs_match_oracle(&g, &length, &pairs)?;
    }
}

/// Two accepted paths can share their first nodes but not their first
/// edges. Here P4 = s-a(1.5)-b-t(2) leaves its parent at index 2, and
/// the search at index 1 under its root s-a(1.5) bans a-b and a-c. The
/// only earlier search with those bans ran under the root s-a(1), so
/// skipping it would push s-a(1.5)-t one round late and, through the
/// `swap_remove` order, make it the 8th path in place of s-w-t (both
/// 101.5 long).
#[test]
fn lawler_skip_keeps_roots_that_share_nodes_but_not_edges() -> Result<(), TestCaseError> {
    let (s, a, b, c, t, w) = (0, 1, 2, 3, 4, 5);
    let mut g = Graph::new(6);
    let mut length = Vec::new();
    for (x, y, l) in [
        (s, a, 1.0),
        (s, a, 1.5),
        (a, b, 1.0),
        (a, c, 1.0),
        (a, t, 100.0),
        (b, t, 1.0),
        (b, t, 2.0),
        (c, t, 2.25),
        (s, w, 50.0),
        (w, t, 51.5),
    ] {
        g.add_edge(NodeId(x), NodeId(y));
        length.push(l);
    }
    assert_pairs_match_oracle(&g, &length, &[(NodeId(s), NodeId(t))])?;
    let paths = k_shortest_paths(&g, NodeId(s), NodeId(t), 8, &length);
    let edges: Vec<Vec<u32>> = paths
        .iter()
        .map(|p| p.edges.iter().map(|e| e.0).collect())
        .collect();
    prop_assert_eq!(edges[7].clone(), vec![8, 9]); // s-w-t, not s-a(1.5)-t
    Ok(())
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
