//! Dijkstra shortest paths under arbitrary non-negative edge lengths.
//!
//! Lengths are supplied as an external slice indexed by [`EdgeId`], because
//! the main consumer — the concurrent-flow FPTAS in `ft-mcf` — re-runs
//! Dijkstra thousands of times over the *same* graph with *different* length
//! functions (the exponential dual weights). Keeping lengths out of the graph
//! avoids rebuilding or mutating it in the hot loop.

use crate::csr::Csr;
use crate::graph::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source Dijkstra run.
#[derive(Clone, Debug)]
pub struct DijkstraResult {
    /// Distance from the source; `f64::INFINITY` if unreachable.
    pub dist: Vec<f64>,
    /// Parent (node, edge) on a shortest path back to the source.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl DijkstraResult {
    /// Number of hops on the shortest path to `t`, or `None` if `t` is
    /// unreachable.
    pub fn hops_to(&self, t: NodeId) -> Option<usize> {
        if !self.dist[t.index()].is_finite() {
            return None;
        }
        let mut hops = 0usize;
        let mut cur = t;
        while let Some((p, _)) = self.parent[cur.index()] {
            hops += 1;
            cur = p;
        }
        Some(hops)
    }

    /// Shared parent walk behind both path reconstructions: collects
    /// `f(parent, edge)` per hop walking from `t` back toward the source
    /// (i.e. in reverse path order), with the output sized up front from
    /// [`DijkstraResult::hops_to`] so neither caller re-allocates while
    /// pushing. Returns `None` when `t` is unreachable.
    fn walk_parents<T, F>(&self, t: NodeId, extra_capacity: usize, mut f: F) -> Option<Vec<T>>
    where
        F: FnMut(NodeId, EdgeId) -> T,
    {
        let hops = self.hops_to(t)?;
        let mut out = Vec::with_capacity(hops + extra_capacity);
        let mut cur = t;
        while let Some((p, e)) = self.parent[cur.index()] {
            out.push(f(p, e));
            cur = p;
        }
        Some(out)
    }

    /// Reconstructs a shortest path to `t` as the list of edges from the
    /// source to `t`, or `None` if unreachable.
    pub fn edge_path_to(&self, t: NodeId) -> Option<Vec<EdgeId>> {
        let mut edges = self.walk_parents(t, 0, |_, e| e)?;
        edges.reverse();
        Some(edges)
    }

    /// Reconstructs a shortest path to `t` as a node list, or `None`.
    pub fn node_path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        // one extra slot so pushing `t` after the reverse stays in capacity
        let mut path = self.walk_parents(t, 1, |p, _| p)?;
        path.reverse();
        path.push(t);
        Some(path)
    }
}

/// Min-heap entry ordered by distance. `f64` distances are never NaN here
/// (lengths are validated), so the total order is safe.
#[derive(PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the minimum distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra.
///
/// `length[e]` is the length of edge `e`; entries for dead edges are ignored.
/// Lengths must be non-negative and not NaN.
///
/// # Panics
/// Panics (debug assertions) on negative or NaN lengths encountered during
/// relaxation.
pub fn dijkstra(g: &Graph, src: NodeId, length: &[f64]) -> DijkstraResult {
    // One-shot calls pay a CSR freeze; repeated callers build the view
    // once and use `dijkstra_csr` directly. The CSR preserves
    // `Graph::neighbors` order, so results are bit-identical.
    dijkstra_csr(&Csr::from_graph(g), src, length)
}

/// [`dijkstra`] over a pre-built [`Csr`] view.
pub fn dijkstra_csr(csr: &Csr, src: NodeId, length: &[f64]) -> DijkstraResult {
    dijkstra_csr_filtered(csr, src, length, |_, _| true)
}

/// Dijkstra over a pre-built [`Csr`] view, restricted to edges/nodes
/// accepted by `allow(node, edge)`: relaxation from `v` over edge `e` to
/// `u` happens only when `allow(u, e)` is true. Traverses the contiguous
/// `offsets`/`targets`/`edge_ids` arrays instead of the pointer-chasing
/// `Vec<Vec<…>>` adjacency.
pub fn dijkstra_csr_filtered<F>(csr: &Csr, src: NodeId, length: &[f64], allow: F) -> DijkstraResult
where
    F: Fn(NodeId, EdgeId) -> bool,
{
    let n = csr.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > dist[v.index()] {
            continue; // stale entry
        }
        for (t, ei) in csr.targets(v.index()).iter().zip(csr.edge_ids(v.index())) {
            let (u, e) = (NodeId(*t), EdgeId(*ei));
            if !allow(u, e) {
                continue;
            }
            let w = length[e.index()];
            debug_assert!(w >= 0.0 && !w.is_nan(), "invalid edge length {w}");
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                parent[u.index()] = Some((v, e));
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    DijkstraResult { dist, parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances;
    use crate::graph::Graph;
    use crate::UNREACHABLE;

    #[test]
    fn unit_lengths_match_bfs() {
        // 5-node graph with a few chords.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let len = vec![1.0; g.edge_id_bound()];
        let d = dijkstra(&g, NodeId(0), &len);
        let b = bfs_distances(&g, NodeId(0));
        for (di, bi) in d.dist.iter().zip(&b) {
            assert_eq!(*di as u32, *bi);
        }
    }

    #[test]
    fn weighted_prefers_cheap_detour() {
        // 0-1 direct cost 10; 0-2-1 cost 2.
        let mut g = Graph::new(3);
        let direct = g.add_edge(NodeId(0), NodeId(1));
        let a = g.add_edge(NodeId(0), NodeId(2));
        let b = g.add_edge(NodeId(2), NodeId(1));
        let mut len = vec![0.0; g.edge_id_bound()];
        len[direct.index()] = 10.0;
        len[a.index()] = 1.0;
        len[b.index()] = 1.0;
        let d = dijkstra(&g, NodeId(0), &len);
        assert_eq!(d.dist[1], 2.0);
        assert_eq!(d.edge_path_to(NodeId(1)).unwrap(), vec![a, b]);
    }

    #[test]
    fn parallel_edges_pick_shorter() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1));
        let e1 = g.add_edge(NodeId(0), NodeId(1));
        let mut len = vec![0.0; 2];
        len[e0.index()] = 5.0;
        len[e1.index()] = 3.0;
        let d = dijkstra(&g, NodeId(0), &len);
        assert_eq!(d.dist[1], 3.0);
        assert_eq!(d.edge_path_to(NodeId(1)).unwrap(), vec![e1]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = dijkstra(&g, NodeId(0), &[1.0]);
        assert!(d.dist[2].is_infinite());
        assert!(d.edge_path_to(NodeId(2)).is_none());
        assert!(d.node_path_to(NodeId(2)).is_none());
        let b = bfs_distances(&g, NodeId(0));
        assert_eq!(b[2], UNREACHABLE);
    }

    #[test]
    fn filtered_bans_edge() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        // ban the direct 0-2 edge (id 2)
        let len = vec![1.0; 3];
        let csr = Csr::from_graph(&g);
        let d = dijkstra_csr_filtered(&csr, NodeId(0), &len, |_, e| e.index() != 2);
        assert_eq!(d.dist[2], 2.0);
    }

    #[test]
    fn node_path_matches_edge_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let len = vec![1.0; 3];
        let d = dijkstra(&g, NodeId(0), &len);
        let nodes = d.node_path_to(NodeId(3)).unwrap();
        let edges = d.edge_path_to(NodeId(3)).unwrap();
        assert_eq!(nodes.len(), edges.len() + 1);
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn csr_variant_is_bit_identical() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let len: Vec<f64> = (0..g.edge_id_bound())
            .map(|i| 0.5 + i as f64 * 0.3)
            .collect();
        let csr = Csr::from_graph(&g);
        for v in g.nodes() {
            let a = dijkstra(&g, v, &len);
            let b = dijkstra_csr(&csr, v, &len);
            for (x, y) in a.dist.iter().zip(&b.dist) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.parent, b.parent);
        }
    }

    #[test]
    fn hops_to_counts_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = dijkstra(&g, NodeId(0), &[1.0; 3]);
        assert_eq!(d.hops_to(NodeId(0)), Some(0));
        assert_eq!(d.hops_to(NodeId(3)), Some(3));
        let g2 = Graph::from_edges(3, &[(0, 1)]);
        let d2 = dijkstra(&g2, NodeId(0), &[1.0]);
        assert_eq!(d2.hops_to(NodeId(2)), None);
    }

    #[test]
    fn zero_length_edges_ok() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let d = dijkstra(&g, NodeId(0), &[0.0, 0.0]);
        assert_eq!(d.dist[2], 0.0);
    }
}
