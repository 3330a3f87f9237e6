//! Routing for the flat-tree operation modes (§2.6).
//!
//! * Clos mode routes with **ECMP** over the rich equal-cost shortest
//!   paths of the tree.
//! * Random-graph modes route with **k-shortest paths** (the paper follows
//!   Jellyfish, which uses 8 paths), because random graphs have few
//!   equal-cost paths but many near-shortest ones.
//!
//! Both routers work on the switch graph; server endpoints are resolved
//! through their attachment switches. Routing state is cached on first
//! use so the flow-level simulator can query paths in hot loops.

use ft_graph::{
    k_shortest_paths_csr, Csr, EdgeId, Graph, GraphError, NodeId, UNREACHABLE, UNREACHABLE16,
};
use ft_topo::Network;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A server-to-server path: attachment hops plus the switch-level route.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerPath {
    /// Switch sequence from the source's attachment to the destination's.
    pub switches: Vec<NodeId>,
    /// Switch-graph edges along `switches` (empty for same-switch pairs).
    pub edges: Vec<EdgeId>,
}

impl ServerPath {
    /// End-to-end hop count including the two server–switch links.
    pub fn hops(&self) -> usize {
        self.edges.len() + 2
    }
}

/// ECMP routing on lazily filled hop-distance rows.
///
/// Holds a frozen [`Csr`] of the switch graph and one `u16` distance row
/// per destination switch, filled by [`Csr::bfs_into_u16`] the first time
/// a query names that destination. Next hops are not stored: the
/// equal-cost next hops of `v` toward `dst` are the CSR neighbors `u`
/// with `row[u] + 1 == row[v]`, in CSR order (= [`Graph::neighbors`]
/// order). A topology change means building a new router; rows are then
/// refilled on demand.
#[derive(Clone, Debug)]
pub struct EcmpRoutes {
    csr: Csr,
    /// `rows[dst][v]` = hop distance from `v` to `dst`, filled on first use.
    rows: Vec<OnceLock<Box<[u16]>>>,
}

impl EcmpRoutes {
    /// Builds a router over the network's switch graph.
    pub fn compute(net: &Network) -> Result<Self, GraphError> {
        Self::compute_on(&net.switch_graph())
    }

    /// Builds a router over an explicit switch graph: O(S + L) for the
    /// CSR; distance rows cost one BFS each, paid per destination queried.
    ///
    /// Fails with [`GraphError::DistanceOverflow`] when the graph has too
    /// many switches for finite distances to fit the `u16` rows.
    pub fn compute_on(sg: &Graph) -> Result<Self, GraphError> {
        let n = sg.node_count();
        if n >= u16::MAX as usize {
            return Err(GraphError::DistanceOverflow { node_count: n });
        }
        Ok(EcmpRoutes {
            csr: Csr::from_graph(sg),
            rows: (0..n).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Distance row toward `dst`, filled on first use; `None` when `dst`
    /// is not a switch of the graph.
    fn row(&self, dst: NodeId) -> Option<&[u16]> {
        let cell = self.rows.get(dst.index())?;
        Some(cell.get_or_init(|| {
            let mut row = vec![UNREACHABLE16; self.csr.node_count()];
            self.csr.bfs_into_u16(dst, &mut row, &mut Vec::new());
            row.into_boxed_slice()
        }))
    }

    /// Neighbors of `v` one hop closer to the row's destination, in CSR
    /// order. Empty for the destination itself and unreachable switches.
    fn hops<'a>(
        &'a self,
        row: &'a [u16],
        v: NodeId,
    ) -> impl Iterator<Item = (NodeId, EdgeId)> + 'a {
        let closer = match row.get(v.index()) {
            Some(&d) if d != 0 && d != UNREACHABLE16 => Some(d - 1),
            _ => None,
        };
        closer.into_iter().flat_map(move |want| {
            self.csr
                .neighbors(v)
                .filter(move |&(u, _)| row.get(u.index()) == Some(&want))
        })
    }

    /// Equal-cost next hops of switch `v` toward destination switch `dst`.
    pub fn next_hops(&self, v: NodeId, dst: NodeId) -> Vec<(NodeId, EdgeId)> {
        self.row(dst)
            .map_or_else(Vec::new, |row| self.hops(row, v).collect())
    }

    /// Hop distance between switches ([`UNREACHABLE`] when disconnected).
    pub fn distance(&self, v: NodeId, dst: NodeId) -> u32 {
        match self.row(dst).and_then(|row| row.get(v.index())) {
            Some(&d) if d != UNREACHABLE16 => u32::from(d),
            _ => UNREACHABLE,
        }
    }

    /// Walks one deterministic ECMP path selected by `flow_hash` (models
    /// per-flow hashing: the same hash always picks the same path).
    /// Returns `None` when `dst` is unreachable from `src`.
    pub fn path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Option<ServerPath> {
        let row = self.row(dst)?;
        if *row.get(src.index())? == UNREACHABLE16 {
            return None;
        }
        let mut switches = vec![src];
        let mut edges = Vec::new();
        let mut v = src;
        let mut h = flow_hash;
        while v != dst {
            let count = self.hops(row, v).count() as u64;
            if count == 0 {
                return None;
            }
            // xorshift step for per-hop variation while staying
            // deterministic per flow
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let (u, e) = self.hops(row, v).nth((h % count) as usize)?;
            switches.push(u);
            edges.push(e);
            v = u;
        }
        Some(ServerPath { switches, edges })
    }
}

/// Lazily computed, cached k-shortest-path sets (Yen) per switch pair.
///
/// Holds a [`Csr`] of the switch graph frozen once per router; every
/// pair's Yen call runs its spur searches on it. A topology change means
/// building a new router.
pub struct KspRoutes {
    csr: Csr,
    k: usize,
    lengths: Vec<f64>,
    cache: RwLock<HashMap<(u32, u32), Vec<ServerPath>>>,
}

impl KspRoutes {
    /// Creates a router over a switch graph keeping `k` paths per pair
    /// (the paper/Jellyfish use 8) — e.g. the id-preserving
    /// `Network::switch_view()` used by the DES simulator, where path edge
    /// ids must name the network's own edges.
    pub fn new_on(sg: &Graph, k: usize) -> Self {
        KspRoutes {
            csr: Csr::from_graph(sg),
            k,
            lengths: vec![1.0; sg.edge_id_bound()],
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Applies `f` to the cached k-path set of a switch pair, computing
    /// and caching it on first use.
    fn with_paths<R>(&self, src: NodeId, dst: NodeId, f: impl FnOnce(&[ServerPath]) -> R) -> R {
        if let Some(hit) = self.cache.read().get(&(src.0, dst.0)) {
            return f(hit);
        }
        let paths: Vec<ServerPath> =
            k_shortest_paths_csr(&self.csr, src, dst, self.k, &self.lengths)
                .into_iter()
                .map(|p| ServerPath {
                    switches: p.nodes,
                    edges: p.edges,
                })
                .collect();
        let out = f(&paths);
        self.cache.write().insert((src.0, dst.0), paths);
        out
    }

    /// The k shortest loopless switch-level paths between two switches,
    /// computed on first use and cached.
    pub fn paths(&self, src: NodeId, dst: NodeId) -> Vec<ServerPath> {
        self.with_paths(src, dst, <[ServerPath]>::to_vec)
    }

    /// Deterministic per-flow path selection among the k paths.
    pub fn path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Option<ServerPath> {
        self.with_paths(src, dst, |paths| {
            let n = paths.len() as u64;
            (n > 0).then(|| paths[(flow_hash % n) as usize].clone())
        })
    }
}

/// Which routing discipline a [`Router`] runs: ECMP for Clos mode,
/// k shortest paths for the random-graph modes (§2.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Hash over equal-cost shortest paths.
    Ecmp,
    /// Hash over the k shortest loopless paths.
    Ksp(usize),
}

/// The router of one [`RouterPolicy`] over one switch graph.
pub enum Router {
    /// ECMP over the equal-cost shortest paths.
    Ecmp(EcmpRoutes),
    /// k shortest paths (Jellyfish uses k = 8).
    Ksp(KspRoutes),
}

impl Router {
    /// Builds the policy's router over a switch graph — e.g. the
    /// id-preserving `Network::switch_view()` the DES routes on, where
    /// path edge ids name the network's own edges. Fails only when the
    /// graph has too many switches for ECMP's `u16` distance rows.
    pub fn build(sg: &Graph, policy: RouterPolicy) -> Result<Router, GraphError> {
        Ok(match policy {
            RouterPolicy::Ecmp => Router::Ecmp(EcmpRoutes::compute_on(sg)?),
            RouterPolicy::Ksp(k) => Router::Ksp(KspRoutes::new_on(sg, k)),
        })
    }

    /// The path `flow_hash` selects between two switches, or `None` when
    /// `dst` is unreachable from `src`.
    pub fn path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Option<ServerPath> {
        match self {
            Router::Ecmp(r) => r.path(src, dst, flow_hash),
            Router::Ksp(r) => r.path(src, dst, flow_hash),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::{FlatTree, FlatTreeConfig, Mode};
    use ft_graph::bfs_distances;
    use ft_topo::fat_tree;

    fn k4() -> Network {
        fat_tree(4).unwrap()
    }

    #[test]
    fn ecmp_distances_match_bfs() {
        let net = k4();
        let r = EcmpRoutes::compute(&net).unwrap();
        let sg = net.switch_graph();
        for v in sg.nodes() {
            let d = bfs_distances(&sg, v);
            for u in sg.nodes() {
                assert_eq!(r.distance(u, v), d[u.index()]);
            }
        }
    }

    #[test]
    fn ecmp_path_is_shortest_and_valid() {
        let net = k4();
        let r = EcmpRoutes::compute(&net).unwrap();
        let sg = net.switch_graph();
        for hash in 0..10u64 {
            // edge switch pod 0 (id 4) to edge switch pod 1 (id 8)
            let p = r.path(NodeId(4), NodeId(8), hash).unwrap();
            assert_eq!(p.edges.len() as u32, r.distance(NodeId(4), NodeId(8)));
            for w in p.switches.windows(2) {
                assert!(sg.has_edge(w[0], w[1]));
            }
            assert_eq!(p.hops(), p.edges.len() + 2);
        }
    }

    #[test]
    fn ecmp_same_hash_same_path() {
        let net = k4();
        let r = EcmpRoutes::compute(&net).unwrap();
        let a = r.path(NodeId(4), NodeId(12), 77).unwrap();
        let b = r.path(NodeId(4), NodeId(12), 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ecmp_fat_tree_k4_has_4_paths_interpod() {
        // between edge switches in different pods, fat-tree k=4 offers
        // k²/4 = 4 equal-cost 4-hop paths
        let net = k4();
        let r = EcmpRoutes::compute(&net).unwrap();
        let paths: std::collections::HashSet<_> = (0..256u64)
            .map(|hash| r.path(NodeId(4), NodeId(8), hash).unwrap().edges)
            .collect();
        assert_eq!(paths.len(), 4);
        for edges in &paths {
            assert_eq!(edges.len(), 4);
        }
    }

    #[test]
    fn ecmp_spreads_over_hashes() {
        let net = k4();
        let r = EcmpRoutes::compute(&net).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for hash in 0..64u64 {
            distinct.insert(r.path(NodeId(4), NodeId(8), hash).unwrap().switches);
        }
        assert!(distinct.len() >= 2, "hashing never spreads load");
    }

    #[test]
    fn repair_matches_full_recompute() {
        // a topology change is repaired by rebuilding the router: the
        // rebuilt rows must equal a fresh BFS on the cut graph
        let net = fat_tree(4).unwrap();
        let mut sg = net.switch_graph();
        let before = EcmpRoutes::compute_on(&sg).unwrap();
        // fail three assorted links
        let victims: Vec<_> = sg.edges().map(|(e, _, _)| e).step_by(7).take(3).collect();
        for &e in &victims {
            sg.remove_edge(e);
        }
        let routes = EcmpRoutes::compute_on(&sg).unwrap();
        let mut changed = 0;
        for dst in sg.nodes() {
            let d = bfs_distances(&sg, dst);
            for v in sg.nodes() {
                assert_eq!(
                    routes.distance(v, dst),
                    d[v.index()],
                    "distance mismatch {v:?}→{dst:?}"
                );
                let mut want: Vec<_> = sg
                    .neighbors(v)
                    .filter(|&(u, _)| {
                        d[v.index()] != UNREACHABLE && d[u.index()] + 1 == d[v.index()]
                    })
                    .collect();
                let mut got = routes.next_hops(v, dst);
                want.sort_by_key(|&(n, e)| (n.0, e.0));
                got.sort_by_key(|&(n, e)| (n.0, e.0));
                assert_eq!(got, want, "next hops mismatch {v:?}→{dst:?}");
                if before.next_hops(v, dst).len() != got.len() {
                    changed += 1;
                }
            }
        }
        assert!(changed > 0, "link failures changed no next-hop set");
    }

    #[test]
    fn unaffected_destinations_not_listed() {
        // triangle 0-1-2 with a pendant 3 on node 2: the edge 0-1 lies on
        // shortest paths only toward destinations 0 and 1 (everything
        // toward 2 and 3 routes around the triangle's other sides), so
        // only those rows may differ after rebuilding without it
        use ft_graph::Graph;
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let before = EcmpRoutes::compute_on(&g).unwrap();
        g.remove_edge(EdgeId(0));
        let after = EcmpRoutes::compute_on(&g).unwrap();
        let affected: Vec<NodeId> = g
            .nodes()
            .filter(|&dst| {
                g.nodes().any(|v| {
                    before.distance(v, dst) != after.distance(v, dst)
                        || before.next_hops(v, dst) != after.next_hops(v, dst)
                })
            })
            .collect();
        assert_eq!(affected, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn rebuild_handles_disconnection() {
        use ft_graph::Graph;
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let (e, _, _) = g.edges().next().unwrap();
        g.remove_edge(e);
        let routes = EcmpRoutes::compute_on(&g).unwrap();
        assert!(routes.path(NodeId(0), NodeId(2), 1).is_none());
        assert!(routes.path(NodeId(1), NodeId(2), 1).is_some());
        assert_eq!(routes.distance(NodeId(0), NodeId(2)), UNREACHABLE);
        assert!(routes.next_hops(NodeId(0), NodeId(2)).is_empty());
    }

    #[test]
    fn oversized_graph_is_a_typed_error() {
        use ft_graph::Graph;
        let err = EcmpRoutes::compute_on(&Graph::new(65_535)).unwrap_err();
        assert_eq!(err, GraphError::DistanceOverflow { node_count: 65_535 });
    }

    #[test]
    fn out_of_range_switches_route_nowhere() {
        let r = EcmpRoutes::compute(&k4()).unwrap();
        let far = NodeId(10_000);
        assert!(r.path(NodeId(0), far, 3).is_none());
        assert!(r.path(far, NodeId(0), 3).is_none());
        assert_eq!(r.distance(far, NodeId(0)), UNREACHABLE);
        assert!(r.next_hops(NodeId(0), far).is_empty());
    }

    #[test]
    fn ksp_paths_sorted_loopless() {
        let cfg = FlatTreeConfig::for_fat_tree_k(4).unwrap();
        let net = FlatTree::new(cfg)
            .unwrap()
            .materialize(&Mode::GlobalRandom)
            .unwrap();
        let r = KspRoutes::new_on(&net.switch_graph(), 8);
        let paths = r.paths(NodeId(4), NodeId(12));
        assert!(!paths.is_empty() && paths.len() <= 8);
        for w in paths.windows(2) {
            assert!(w[0].edges.len() <= w[1].edges.len());
        }
        for p in &paths {
            let mut seen = std::collections::HashSet::new();
            for s in &p.switches {
                assert!(seen.insert(*s), "loop in KSP path");
            }
        }
        // cache hit returns the same answer
        assert_eq!(r.paths(NodeId(4), NodeId(12)), paths);
    }

    #[test]
    fn ksp_flow_hash_selects_within_k() {
        let net = k4();
        let r = KspRoutes::new_on(&net.switch_graph(), 4);
        for h in 0..16u64 {
            let p = r.path(NodeId(0), NodeId(10), h).unwrap();
            assert!(!p.switches.is_empty());
        }
    }

    #[test]
    fn unreachable_returns_none() {
        use ft_topo::{DeviceKind, NetworkBuilder};
        let mut b = NetworkBuilder::new("x");
        let s0 = b.add_switch(DeviceKind::Generic, 2, None).unwrap();
        let s1 = b.add_switch(DeviceKind::Generic, 2, None).unwrap();
        let h0 = b.add_server(None);
        let h1 = b.add_server(None);
        b.add_link(h0, s0).unwrap();
        b.add_link(h1, s1).unwrap();
        let net = b.build().unwrap();
        let r = EcmpRoutes::compute(&net).unwrap();
        assert!(r.path(NodeId(0), NodeId(1), 0).is_none());
        let kr = KspRoutes::new_on(&net.switch_graph(), 4);
        assert!(kr.path(NodeId(0), NodeId(1), 0).is_none());
    }
}
