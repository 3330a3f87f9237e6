//! A frozen compressed-sparse-row (CSR) view of a [`Graph`].
//!
//! The [`Graph`] adjacency is a `Vec<Vec<(NodeId, EdgeId)>>` that keeps
//! tombstoned edges in place and filters them on every iteration — the right
//! trade-off for mutation-heavy callers (failure injection), but a poor one
//! for the two hot kernels of the paper's evaluation, which traverse a
//! *fixed* graph thousands of times (BFS-APSP for Figures 5/6, Dijkstra
//! inside the FPTAS for Figures 7/8). [`Csr`] freezes the live adjacency
//! into three contiguous arrays:
//!
//! ```text
//! offsets:  n + 1 cumulative degrees — node v's neighbors live at
//!           targets[offsets[v] .. offsets[v + 1]]
//! targets:  neighbor node ids, in Graph::neighbors iteration order
//! edge_ids: the edge id of each (v, target) entry, parallel to targets
//! ```
//!
//! Neighbor order is exactly [`Graph::neighbors`] order, so every algorithm
//! ported from the `Vec<Vec<…>>` adjacency to the CSR view relaxes edges in
//! the same sequence and produces bit-identical results (the determinism
//! contract in DESIGN.md §10). The view does not observe later mutations of
//! the source graph; rebuild it after `remove_edge`/`restore_edge`.

use crate::graph::{id32, EdgeId, Graph, NodeId};

/// Frozen CSR adjacency of the live edges of a [`Graph`].
///
/// # Example
///
/// ```
/// use ft_graph::{Csr, Graph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let csr = Csr::from_graph(&g);
/// assert_eq!(csr.node_count(), 3);
/// assert_eq!(csr.degree(1), 2);
/// assert_eq!(csr.targets(1), &[0, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct Csr {
    /// `n + 1` cumulative degrees; node `v` owns entries
    /// `offsets[v]..offsets[v + 1]` of `targets`/`edge_ids`.
    offsets: Vec<u32>,
    /// Neighbor node ids, concatenated per node.
    targets: Vec<u32>,
    /// Edge id of each adjacency entry, parallel to `targets`.
    edge_ids: Vec<u32>,
}

impl Csr {
    /// Freezes the live adjacency of `g`, preserving neighbor order.
    pub fn from_graph(g: &Graph) -> Csr {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut edge_ids = Vec::new();
        offsets.push(0);
        for v in g.nodes() {
            for (u, e) in g.neighbors(v) {
                targets.push(u.0);
                edge_ids.push(e.0);
            }
            offsets.push(id32(targets.len()));
        }
        Csr {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of adjacency entries (each undirected edge appears twice,
    /// self-loops once).
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }

    /// The half-open `targets`/`edge_ids` range owned by node `v`.
    #[inline]
    fn range(&self, v: usize) -> std::ops::Range<usize> {
        // bounds: offsets has node_count + 1 entries, so v + 1 is in range
        // for every valid node index v
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// Live degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.range(v).len()
    }

    /// Neighbor node ids of `v`, in [`Graph::neighbors`] order.
    #[inline]
    pub fn targets(&self, v: usize) -> &[u32] {
        &self.targets[self.range(v)]
    }

    /// Edge ids of `v`'s adjacency entries, parallel to [`Csr::targets`].
    #[inline]
    pub fn edge_ids(&self, v: usize) -> &[u32] {
        &self.edge_ids[self.range(v)]
    }

    /// Iterates `(neighbor, edge)` pairs of `v`, mirroring
    /// [`Graph::neighbors`].
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let r = self.range(v.index());
        self.targets[r.clone()]
            .iter()
            .zip(&self.edge_ids[r])
            .map(|(&t, &e)| (NodeId(t), EdgeId(e)))
    }

    /// Single-source BFS hop distances written into `dist` (length must be
    /// `node_count()`), reusing `queue` as the frontier storage: the
    /// scalar kernel behind ECMP's lazily filled rows and the reference
    /// the bitset kernel of [`crate::DistMatrix`] is checked against.
    ///
    /// Allocation-free once `queue`'s capacity has grown to `node_count()`;
    /// unreachable nodes hold [`crate::UNREACHABLE16`], and every other
    /// entry equals [`crate::bfs_distances`] on the source graph. A finite
    /// distance is at most `n − 1` hops, so callers keep `node_count() <
    /// u16::MAX` (ECMP and [`crate::DistMatrix::compute_scalar_csr`] check
    /// this once per table); past that, distances saturate at the sentinel.
    pub fn bfs_into_u16(&self, src: NodeId, dist: &mut [u16], queue: &mut Vec<u32>) {
        debug_assert_eq!(dist.len(), self.node_count());
        debug_assert!(self.node_count() < u16::MAX as usize);
        dist.fill(crate::UNREACHABLE16);
        queue.clear();
        dist[src.index()] = 0;
        queue.push(src.0);
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            let dv = dist[v].saturating_add(1);
            for &t in self.targets(v) {
                let u = t as usize;
                if dist[u] == crate::UNREACHABLE16 {
                    dist[u] = dv;
                    queue.push(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances;
    use crate::{UNREACHABLE, UNREACHABLE16};

    fn diamond() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn preserves_neighbor_order() {
        let g = diamond();
        let csr = Csr::from_graph(&g);
        for v in g.nodes() {
            let from_graph: Vec<_> = g.neighbors(v).collect();
            let from_csr: Vec<_> = csr.neighbors(v).collect();
            assert_eq!(from_graph, from_csr, "adjacency of {v:?}");
        }
        assert_eq!(csr.entry_count(), 8);
    }

    #[test]
    fn filters_dead_edges() {
        let mut g = diamond();
        let (e, _, _) = g.edges().next().unwrap();
        g.remove_edge(e);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.entry_count(), 6);
        for v in g.nodes() {
            assert_eq!(csr.degree(v.index()), g.degree(v));
        }
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(1));
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 3, "two parallel + one self-loop entry");
        assert_eq!(csr.targets(0), &[1, 1]);
    }

    #[test]
    fn bfs_matches_graph_bfs() {
        // one buffer serves every source, so each run must overwrite the
        // last in full; node 4 is isolated and stays at the sentinel
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let csr = Csr::from_graph(&g);
        let (mut dist, mut queue) = (vec![0u16; 5], Vec::new());
        for v in g.nodes() {
            csr.bfs_into_u16(v, &mut dist, &mut queue);
            let widened = dist.iter().map(|&d| match d {
                UNREACHABLE16 => UNREACHABLE,
                d => u32::from(d),
            });
            assert!(widened.eq(bfs_distances(&g, v)), "row of {v:?}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.entry_count(), 0);
    }
}
