//! SDN rule compilation (§2.6).
//!
//! Because flat-tree "maintains structures when approximating random
//! graphs, … it is possible to have prior knowledge of the shortest paths
//! and program the routing decisions via SDN". This module compiles the
//! routers of [`crate::routing`] into per-switch forwarding tables: for
//! every (switch, destination switch), the set of output links a flow may
//! take. The flow-level simulator and the examples forward through these
//! tables exactly as a match-action dataplane would.

use crate::routing::EcmpRoutes;
use ft_graph::{EdgeId, NodeId};
use ft_topo::Network;

/// A per-switch forwarding table: `out[dst]` = candidate output links
/// (with next-hop switch) for traffic to destination switch `dst`.
#[derive(Clone, Debug)]
pub struct RuleTable {
    /// The switch this table is installed on.
    pub switch: NodeId,
    /// Indexed by destination switch id.
    pub out: Vec<Vec<(NodeId, EdgeId)>>,
}

impl RuleTable {
    /// Number of non-empty rules.
    pub fn rule_count(&self) -> usize {
        self.out.iter().filter(|v| !v.is_empty()).count()
    }
}

/// Compiles ECMP next hops into one [`RuleTable`] per switch.
pub fn compile_rules(net: &Network, routes: &EcmpRoutes) -> Vec<RuleTable> {
    let s = net.num_switches();
    (0..s)
        .map(|v| {
            let sw = NodeId(v as u32);
            let out: Vec<Vec<(NodeId, EdgeId)>> = (0..s)
                .map(|dst| routes.next_hops(sw, NodeId(dst as u32)))
                .collect();
            RuleTable { switch: sw, out }
        })
        .collect()
}

/// Forwards a packet through compiled rules from `src` to `dst` switch,
/// hashing over candidates per hop. Returns the switch path, or `None` if
/// a table miss occurs (disconnected destination).
pub fn forward(
    tables: &[RuleTable],
    src: NodeId,
    dst: NodeId,
    flow_hash: u64,
) -> Option<Vec<NodeId>> {
    let mut path = vec![src];
    let mut v = src;
    let mut h = flow_hash.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut ttl = tables.len() + 1;
    while v != dst {
        if ttl == 0 {
            return None; // routing loop guard; cannot happen with ECMP tables
        }
        ttl -= 1;
        let candidates = &tables[v.index()].out[dst.index()];
        if candidates.is_empty() {
            return None;
        }
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        let (u, _) = candidates[(h % candidates.len() as u64) as usize];
        path.push(u);
        v = u;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::EcmpRoutes;
    use ft_topo::fat_tree;

    #[test]
    fn compiled_rules_cover_all_destinations() {
        let net = fat_tree(4).unwrap();
        let routes = EcmpRoutes::compute(&net).unwrap();
        let tables = compile_rules(&net, &routes);
        assert_eq!(tables.len(), net.num_switches());
        for t in &tables {
            // every other switch is reachable → non-empty rule
            assert_eq!(t.rule_count(), net.num_switches() - 1);
        }
    }

    #[test]
    fn forwarding_reaches_destination_shortest() {
        let net = fat_tree(4).unwrap();
        let routes = EcmpRoutes::compute(&net).unwrap();
        let tables = compile_rules(&net, &routes);
        for hash in 0..8u64 {
            let p = forward(&tables, NodeId(4), NodeId(16), hash).unwrap();
            assert_eq!(p.first(), Some(&NodeId(4)));
            assert_eq!(p.last(), Some(&NodeId(16)));
            assert_eq!(
                (p.len() - 1) as u32,
                routes.distance(NodeId(4), NodeId(16)),
                "forwarding must follow shortest paths"
            );
        }
    }

    #[test]
    fn forward_to_self_trivial() {
        let net = fat_tree(4).unwrap();
        let routes = EcmpRoutes::compute(&net).unwrap();
        let tables = compile_rules(&net, &routes);
        assert_eq!(
            forward(&tables, NodeId(3), NodeId(3), 0).unwrap(),
            vec![NodeId(3)]
        );
    }

    #[test]
    fn forward_miss_returns_none() {
        use ft_topo::{DeviceKind, NetworkBuilder};
        let mut b = NetworkBuilder::new("x");
        let s0 = b.add_switch(DeviceKind::Generic, 2, None).unwrap();
        let s1 = b.add_switch(DeviceKind::Generic, 2, None).unwrap();
        let h0 = b.add_server(None);
        let h1 = b.add_server(None);
        b.add_link(h0, s0).unwrap();
        b.add_link(h1, s1).unwrap();
        let net = b.build().unwrap();
        let tables = compile_rules(&net, &EcmpRoutes::compute(&net).unwrap());
        assert!(forward(&tables, NodeId(0), NodeId(1), 0).is_none());
    }
}
