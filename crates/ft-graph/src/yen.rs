//! Yen's algorithm for k shortest loopless paths.
//!
//! The paper routes its approximated random graphs with k-shortest-paths
//! routing (§2.6), following Jellyfish \[Singla et al., NSDI'12\] which uses
//! 8-shortest-paths. `ft-control` compiles per-destination path sets with
//! this module.
//!
//! Every spur search of one call runs on the same [`Csr`] and the same
//! `SpurSearch` scratch: distances, parents and bans live in arrays
//! stamped with a generation counter, so starting a search or a new ban
//! set costs O(1) instead of a reset or a hash set. Each spur search is
//! goal-bounded: one Dijkstra from the destination per call gives every
//! node's unbanned distance to it, an A* pass over those distances finds
//! the length `U` of a real spur path under the current bans, and the
//! search proper skips every relaxation that cannot lie on a path of
//! length ≤ `U`. It keeps the plain search's heap order and tie-breaks,
//! so it returns the same path bit for bit. An accepted path skips the
//! spur searches below the index where it left its parent path (Lawler)
//! whose root no accepted path shares in nodes but not in edges: those
//! repeat searches already run (DESIGN.md §14.3).

use crate::csr::Csr;
use crate::dijkstra::{dijkstra_csr, HeapEntry};
use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::{BinaryHeap, HashSet};

/// Relative slack on the spur bound `U`. A relaxation to `u` at distance
/// `nd` is skipped only when `nd + to_dst[u] > U·(1 + BOUND_SLACK)`. The
/// search sums lengths forward and `to_dst` sums them back from the
/// destination, so the two round apart by up to ~2⁻⁵³ per hop, relative;
/// the slack absorbs that, so no node of the returned path is pruned.
/// Pruning less is always safe.
const BOUND_SLACK: f64 = 1e-9;

/// A loopless path: node sequence, the edges between them, and total length.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Nodes from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Edges, `edges[i]` connecting `nodes[i]` and `nodes[i+1]`.
    pub edges: Vec<EdgeId>,
    /// Sum of edge lengths.
    pub length: f64,
}

impl Path {
    /// Number of hops (edges) on the path.
    pub fn hops(&self) -> usize {
        self.edges.len()
    }
}

/// Reusable Dijkstra scratch for the spur searches of one Yen call.
///
/// `dist[v]` and `parent[v]` are meaningful only while `reached[v]` holds
/// the current search generation; a node or edge is banned while its entry
/// in `banned_nodes`/`banned_edges` holds the current ban generation.
/// `to_dst[v]` is `v`'s distance to the destination with nothing banned.
struct SpurSearch {
    dist: Vec<f64>,
    parent: Vec<(NodeId, EdgeId)>,
    reached: Vec<u32>,
    search: u32,
    banned_nodes: Vec<u32>,
    banned_edges: Vec<u32>,
    ban: u32,
    heap: BinaryHeap<HeapEntry>,
    to_dst: Vec<f64>,
}

impl SpurSearch {
    fn new(to_dst: Vec<f64>, edges: usize) -> Self {
        let nodes = to_dst.len();
        SpurSearch {
            dist: vec![f64::INFINITY; nodes],
            parent: vec![(NodeId(0), EdgeId(0)); nodes],
            reached: vec![0; nodes],
            search: 0,
            banned_nodes: vec![0; nodes],
            banned_edges: vec![0; edges],
            ban: 1,
            heap: BinaryHeap::new(),
            to_dst,
        }
    }

    /// Lifts every ban: starts a new, empty ban generation.
    fn clear_bans(&mut self) {
        if self.ban == u32::MAX {
            self.banned_nodes.fill(0);
            self.banned_edges.fill(0);
            self.ban = 0;
        }
        self.ban += 1;
    }

    fn ban_node(&mut self, v: NodeId) {
        self.banned_nodes[v.index()] = self.ban;
    }

    fn ban_edge(&mut self, e: EdgeId) {
        self.banned_edges[e.index()] = self.ban;
    }

    /// Whether the arc over edge `e` into node `u` is banned.
    fn banned(&self, u: usize, e: u32) -> bool {
        self.banned_edges[e as usize] == self.ban || self.banned_nodes[u] == self.ban
    }

    /// Current tentative distance of `v` (infinite until reached).
    fn dist(&self, v: usize) -> f64 {
        if self.reached[v] == self.search {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// Starts a new search generation rooted at `src` with an empty heap.
    fn start(&mut self, src: NodeId) {
        if self.search == u32::MAX {
            self.reached.fill(0);
            self.search = 0;
        }
        self.search += 1;
        self.heap.clear();
        self.reached[src.index()] = self.search;
        self.dist[src.index()] = 0.0;
    }

    /// Length of a real `src → dst` path under the current bans, found by
    /// A* over `to_dst`, or `None` when the bans cut `dst` off. The path
    /// A* takes among equal-length ones depends on its `g + h` order, so
    /// only its length is used: as the bound of [`SpurSearch::shortest`].
    fn bound(&mut self, csr: &Csr, src: NodeId, dst: NodeId, length: &[f64]) -> Option<f64> {
        self.start(src);
        self.heap.push(HeapEntry {
            dist: self.to_dst[src.index()],
            node: src,
        });
        while let Some(HeapEntry { dist: f, node: v }) = self.heap.pop() {
            let g = self.dist[v.index()];
            if f > g + self.to_dst[v.index()] {
                continue; // stale entry
            }
            if v == dst {
                return Some(g);
            }
            for (&t, &e) in csr.targets(v.index()).iter().zip(csr.edge_ids(v.index())) {
                let u = t as usize;
                let h = self.to_dst[u];
                if self.banned(u, e) || h.is_infinite() {
                    continue;
                }
                let ng = g + length[e as usize];
                if ng < self.dist(u) {
                    self.reached[u] = self.search;
                    self.dist[u] = ng;
                    self.heap.push(HeapEntry {
                        dist: ng + h,
                        node: NodeId(t),
                    });
                }
            }
        }
        None
    }

    /// Shortest `src → dst` path avoiding the banned nodes and edges, or
    /// `None` when `dst` is unreachable.
    ///
    /// Relaxes exactly like [`crate::dijkstra::dijkstra_csr_filtered`]
    /// (same heap order, same strict `<`) but stops once `dst` is popped:
    /// with non-negative lengths a popped node's distance and parent never
    /// change again, and every node on its parent chain was popped
    /// before it, so the path and its length are those of the full run.
    /// A relaxation to `u` at distance `nd` is skipped when
    /// `nd + to_dst[u] > limit`; with `limit` at least the length of a
    /// real path (plus [`BOUND_SLACK`]) no node of the answer's parent
    /// chain is skipped, so the answer stays that of the unbounded run.
    fn shortest(
        &mut self,
        csr: &Csr,
        src: NodeId,
        dst: NodeId,
        length: &[f64],
        limit: f64,
    ) -> Option<Path> {
        self.start(src);
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        let mut found = false;
        while let Some(HeapEntry { dist: d, node: v }) = self.heap.pop() {
            if d > self.dist(v.index()) {
                continue; // stale entry
            }
            if v == dst {
                found = true;
                break;
            }
            for (&t, &e) in csr.targets(v.index()).iter().zip(csr.edge_ids(v.index())) {
                let u = t as usize;
                if self.banned(u, e) {
                    continue;
                }
                let w = length[e as usize];
                debug_assert!(w >= 0.0 && !w.is_nan(), "invalid edge length {w}");
                let nd = d + w;
                if nd + self.to_dst[u] > limit {
                    continue; // too long to lie on a path within the bound
                }
                if nd < self.dist(u) {
                    self.reached[u] = self.search;
                    self.dist[u] = nd;
                    self.parent[u] = (v, EdgeId(e));
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: NodeId(t),
                    });
                }
            }
        }
        if !found {
            return None;
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, e) = self.parent[cur.index()];
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path {
            nodes,
            edges,
            length: self.dist[dst.index()],
        })
    }

    /// [`SpurSearch::shortest`] bounded by [`SpurSearch::bound`]: every
    /// search of a call, the first path's included.
    fn spur(&mut self, csr: &Csr, src: NodeId, dst: NodeId, length: &[f64]) -> Option<Path> {
        let bound = self.bound(csr, src, dst, length)?;
        self.shortest(csr, src, dst, length, bound * (1.0 + BOUND_SLACK))
    }
}

/// Computes up to `k` shortest loopless paths from `src` to `dst` under the
/// given per-edge lengths, in non-decreasing length order.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// loopless paths. Returns an empty vector when `dst` is unreachable. For
/// `src == dst` returns the single empty path.
///
/// This is classic Yen: the i-th candidate spur paths are generated by
/// banning, at each spur node, the outgoing edges used by already-accepted
/// paths sharing the same prefix, plus all prefix nodes. Below the index
/// where an accepted path left the path it was spurred from, it skips
/// each spur search that repeats one already run (Lawler), which returns
/// classic Yen's paths. Callers that ask for many pairs on one graph
/// should freeze it once and call
/// [`k_shortest_paths_csr`].
pub fn k_shortest_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    length: &[f64],
) -> Vec<Path> {
    k_shortest_paths_csr(&Csr::from_graph(g), src, dst, k, length)
}

/// [`k_shortest_paths`] over a pre-built [`Csr`] view of the graph.
///
/// `length` is indexed by edge id and must cover every edge of the view.
/// Returns an empty vector when `src` or `dst` is not a node of the view
/// (unless `src == dst`, which is the single empty path).
pub fn k_shortest_paths_csr(
    csr: &Csr,
    src: NodeId,
    dst: NodeId,
    k: usize,
    length: &[f64],
) -> Vec<Path> {
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
    let n = csr.node_count();
    if src.index() >= n || dst.index() >= n {
        return Vec::new();
    }

    // Every node's unbanned distance to `dst`: the view is undirected and
    // bans only remove arcs, so these are lower bounds under every ban set
    // of the call.
    let mut search = SpurSearch::new(dijkstra_csr(csr, dst, length).dist, length.len());
    let Some(p0) = search.spur(csr, src, dst, length) else {
        return Vec::new();
    };

    let mut accepted: Vec<Path> = vec![p0];
    // Each candidate with the spur index where it leaves the path it was
    // spurred from.
    let mut candidates: Vec<(Path, usize)> = Vec::new();
    // Edge sets of candidates already generated, to avoid duplicates.
    let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
    seen.insert(accepted[0].edges.clone());
    // Where the last accepted path left its parent (Lawler).
    let mut deviation = 0;

    while accepted.len() < k {
        let Some(prev) = accepted.last() else {
            break; // unreachable: `accepted` starts with p0 and only grows
        };
        // Spur from every node of the previous path except the destination.
        for spur_idx in 0..prev.nodes.len() - 1 {
            let spur_node = prev.nodes[spur_idx];
            let root_nodes = &prev.nodes[..=spur_idx];
            let root_edges = &prev.edges[..spur_idx];
            // Accepted paths with the same root nodes; parallel edges let
            // one take other root edges.
            let same_root = || {
                accepted
                    .iter()
                    .filter(|p| p.nodes.len() > spur_idx && p.nodes[..=spur_idx] == *root_nodes)
            };
            // Lawler: below the deviation, when every such path also has
            // the root edges, the root, the bans and so the result are
            // those of a search already run, whose path is in `seen`.
            if spur_idx < deviation && same_root().all(|p| p.edges.starts_with(root_edges)) {
                continue;
            }
            let root_len: f64 = root_edges.iter().map(|e| length[e.index()]).sum();

            // Ban: edges leaving the spur node along any accepted path with
            // the same root, and all root nodes except the spur node itself.
            search.clear_bans();
            for p in same_root() {
                if let Some(&e) = p.edges.get(spur_idx) {
                    search.ban_edge(e);
                }
            }
            for &v in &root_nodes[..spur_idx] {
                search.ban_node(v);
            }

            if let Some(spur) = search.spur(csr, spur_node, dst, length) {
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
                    candidates.push((total, spur_idx));
                }
            }
        }
        // Pop the best candidate.
        let Some((best_idx, _)) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, (a, _)), (_, (b, _))| a.length.total_cmp(&b.length))
        else {
            break; // no more loopless paths
        };
        let (best, spur_idx) = candidates.swap_remove(best_idx);
        accepted.push(best);
        deviation = spur_idx;
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn unit(g: &Graph) -> Vec<f64> {
        vec![1.0; g.edge_id_bound()]
    }

    fn assert_loopless(p: &Path) {
        let mut set = HashSet::new();
        for n in &p.nodes {
            assert!(set.insert(*n), "path revisits {n:?}: {:?}", p.nodes);
        }
    }

    fn assert_valid(g: &Graph, p: &Path, src: NodeId, dst: NodeId) {
        assert_eq!(p.nodes.first(), Some(&src));
        assert_eq!(p.nodes.last(), Some(&dst));
        assert_eq!(p.edges.len() + 1, p.nodes.len());
        for (i, &e) in p.edges.iter().enumerate() {
            let (a, b) = g.endpoints(e);
            let (x, y) = (p.nodes[i], p.nodes[i + 1]);
            assert!((a, b) == (x, y) || (a, b) == (y, x), "edge/node mismatch");
        }
    }

    #[test]
    fn single_path_graph() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(2), 5, &unit(&g));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hops(), 2);
    }

    #[test]
    fn diamond_two_paths() {
        // 0-1-3 and 0-2-3
        let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(3), 5, &unit(&g));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].hops(), 2);
        assert_eq!(ps[1].hops(), 2);
        assert_ne!(ps[0].nodes, ps[1].nodes);
        for p in &ps {
            assert_loopless(p);
            assert_valid(&g, p, NodeId(0), NodeId(3));
        }
    }

    #[test]
    fn lengths_nondecreasing_and_distinct() {
        // K4: many loopless paths between 0 and 3.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(3), 10, &unit(&g));
        // loopless paths 0→3 in K4: direct (1), via one (2), via two (2) = 5
        assert_eq!(ps.len(), 5);
        for w in ps.windows(2) {
            assert!(w[0].length <= w[1].length);
        }
        let mut edge_sets: Vec<_> = ps.iter().map(|p| p.edges.clone()).collect();
        edge_sets.sort();
        edge_sets.dedup();
        assert_eq!(edge_sets.len(), 5, "paths must be distinct");
        for p in &ps {
            assert_loopless(p);
            assert_valid(&g, p, NodeId(0), NodeId(3));
        }
    }

    #[test]
    fn weighted_ordering() {
        // 0-1 cost 1; 0-2-1 cost 0.5 total.
        let mut g = Graph::new(3);
        let direct = g.add_edge(NodeId(0), NodeId(1));
        let a = g.add_edge(NodeId(0), NodeId(2));
        let b = g.add_edge(NodeId(2), NodeId(1));
        let mut len = vec![0.0; g.edge_id_bound()];
        len[direct.index()] = 1.0;
        len[a.index()] = 0.25;
        len[b.index()] = 0.25;
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(1), 2, &len);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].edges, vec![a, b]);
        assert_eq!(ps[1].edges, vec![direct]);
    }

    #[test]
    fn parallel_edges_are_distinct_paths() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(1), 5, &unit(&g));
        assert_eq!(ps.len(), 2, "two parallel links are two distinct paths");
    }

    #[test]
    fn unreachable_returns_empty() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(2), 3, &unit(&g)).is_empty());
    }

    #[test]
    fn src_equals_dst() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(0), 3, &unit(&g));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hops(), 0);
    }

    #[test]
    fn k_zero() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(1), 0, &unit(&g)).is_empty());
    }

    #[test]
    fn ring_paths() {
        // 6-cycle: exactly two loopless paths between opposite nodes.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(3), 4, &unit(&g));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].hops(), 3);
        assert_eq!(ps[1].hops(), 3);
    }
}
