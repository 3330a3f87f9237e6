//! Unweighted shortest paths: the single-source BFS oracle.
//!
//! The paper's first metric (Figures 5 and 6) is average path length in hops
//! between server pairs. Converter switches are physical-layer devices that
//! contribute no hops (§3.1), so path length is exact BFS distance on the
//! logical switch graph plus the two server–switch links. `ft-metrics`
//! reads those distances from the one hop-distance table,
//! [`DistMatrix`](crate::DistMatrix); [`bfs_distances`] here is the plain
//! queue BFS over the [`Graph`] adjacency that the table, the CSR kernels
//! and the graph statistics are checked against.

use crate::graph::{Graph, NodeId};
use crate::UNREACHABLE;
use std::collections::VecDeque;

/// Single-source BFS distances in hops.
///
/// Returns one entry per node; unreachable nodes hold [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for (u, _) in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_distances_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, NodeId(0)), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, NodeId(2)), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_takes_chord() {
        // 0 - 1 - 2 - 3 path plus a chord 0-3
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[3], 1, "chord 0-3 shortens the path");
        assert_eq!(d[2], 2);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn bfs_respects_removed_edges() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let (e, _, _) = g.edges().next().unwrap();
        g.remove_edge(e);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[1], UNREACHABLE);
    }
}
