//! Differential oracle for ECMP routing.
//!
//! `EcmpRoutes` derives next hops from lazily filled `u16` distance rows
//! while it walks. The oracle below is the eager construction it replaced:
//! one BFS per destination plus a full `next[dst][v]` next-hop table, walked
//! with the same xorshift choice. Both must agree on every (src, dst) pair —
//! paths for several flow hashes, distances, next-hop sets and compiled SDN
//! rules — on Clos, both random-graph modes, and graphs with links removed.

use ft_control::{compile_rules, EcmpRoutes, ServerPath};
use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_graph::{bfs_distances, EdgeId, Graph, NodeId, UNREACHABLE};
use ft_topo::{fat_tree, Network};

/// Eager next-hop tables: `next[dst][v]` = neighbors of `v` one hop closer
/// to `dst`, in `Graph::neighbors` order.
struct Oracle {
    next: Vec<Vec<Vec<(NodeId, EdgeId)>>>,
    dist: Vec<Vec<u32>>,
}

impl Oracle {
    fn build(sg: &Graph) -> Oracle {
        let s = sg.node_count();
        let mut next = Vec::with_capacity(s);
        let mut dist = Vec::with_capacity(s);
        for dst in sg.nodes() {
            let d = bfs_distances(sg, dst);
            let mut per_v = vec![Vec::new(); s];
            for v in sg.nodes() {
                if d[v.index()] == UNREACHABLE || v == dst {
                    continue;
                }
                for (u, e) in sg.neighbors(v) {
                    if d[u.index()] != UNREACHABLE && d[u.index()] + 1 == d[v.index()] {
                        per_v[v.index()].push((u, e));
                    }
                }
            }
            next.push(per_v);
            dist.push(d);
        }
        Oracle { next, dist }
    }

    fn path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Option<ServerPath> {
        if src != dst && self.dist[dst.index()][src.index()] == UNREACHABLE {
            return None;
        }
        let mut switches = vec![src];
        let mut edges = Vec::new();
        let mut v = src;
        let mut h = flow_hash;
        while v != dst {
            let hops = &self.next[dst.index()][v.index()];
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let (u, e) = hops[(h % hops.len() as u64) as usize];
            switches.push(u);
            edges.push(e);
            v = u;
        }
        Some(ServerPath { switches, edges })
    }
}

const HASHES: [u64; 3] = [0, 0x9E37_79B9_7F4A_7C15, u64::MAX];

/// Compares every (src, dst) pair; returns how many were unreachable.
fn assert_matches_oracle(sg: &Graph, label: &str) -> usize {
    let oracle = Oracle::build(sg);
    let routes = EcmpRoutes::compute_on(sg).unwrap();
    let mut unreachable = 0;
    for dst in sg.nodes() {
        for src in sg.nodes() {
            assert_eq!(
                routes.distance(src, dst),
                oracle.dist[dst.index()][src.index()],
                "{label}: distance {src:?}→{dst:?}"
            );
            unreachable += usize::from(routes.distance(src, dst) == UNREACHABLE);
            let mut got = routes.next_hops(src, dst);
            let mut want = oracle.next[dst.index()][src.index()].clone();
            got.sort_by_key(|&(n, e)| (n.0, e.0));
            want.sort_by_key(|&(n, e)| (n.0, e.0));
            assert_eq!(got, want, "{label}: next hops {src:?}→{dst:?}");
            for h in HASHES {
                assert_eq!(
                    routes.path(src, dst, h),
                    oracle.path(src, dst, h),
                    "{label}: path {src:?}→{dst:?} hash {h:#x}"
                );
            }
        }
    }
    unreachable
}

/// Compiled rules must be exactly the oracle's tables, order included.
fn assert_rules_match_oracle(net: &Network, label: &str) {
    let sg = net.switch_graph();
    let oracle = Oracle::build(&sg);
    let tables = compile_rules(net, &EcmpRoutes::compute(net).unwrap());
    assert_eq!(tables.len(), sg.node_count(), "{label}");
    for t in &tables {
        for (dst, out) in t.out.iter().enumerate() {
            assert_eq!(
                out,
                &oracle.next[dst][t.switch.index()],
                "{label}: rule {:?}→{dst}",
                t.switch
            );
        }
    }
}

fn flat_tree(k: usize, mode: &Mode) -> Network {
    FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
        .unwrap()
        .materialize(mode)
        .unwrap()
}

#[test]
fn fat_trees_match_oracle() {
    for k in [4, 8, 16] {
        let net = fat_tree(k).unwrap();
        let label = format!("fat-tree k={k}");
        assert_eq!(assert_matches_oracle(&net.switch_graph(), &label), 0);
        assert_rules_match_oracle(&net, &label);
    }
}

#[test]
fn random_graph_modes_match_oracle() {
    for mode in [Mode::GlobalRandom, Mode::LocalRandom] {
        let net = flat_tree(8, &mode);
        let label = format!("flat-tree k=8 {mode:?}");
        assert_eq!(assert_matches_oracle(&net.switch_graph(), &label), 0);
        assert_rules_match_oracle(&net, &label);
    }
}

#[test]
fn rebuilt_router_matches_oracle_after_edge_removals() {
    // Seeded pseudo-random link failures; the heavier rate disconnects
    // switches, so unreachable pairs are covered too.
    for (k, per_mille) in [(4usize, 400u64), (8, 150)] {
        let mut sg = fat_tree(k).unwrap().switch_graph();
        let mut state = 0x2545_F491_4F6C_DD1Du64 ^ k as u64;
        let victims: Vec<EdgeId> = sg
            .edges()
            .map(|(e, _, _)| e)
            .filter(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % 1000 < per_mille
            })
            .collect();
        assert!(!victims.is_empty());
        for e in victims {
            sg.remove_edge(e);
        }
        let unreachable =
            assert_matches_oracle(&sg, &format!("fat-tree k={k} minus {per_mille}‰ links"));
        if k == 4 {
            assert!(unreachable > 0, "the heavy failure rate must disconnect");
        }
    }
}
