//! The flow-level event simulator.
//!
//! Time advances from event to event: the next flow completion, flow
//! arrival, or scheduled link failure/repair. Between events, rates are the
//! max-min fair allocation of [`crate::ratealloc`] over each flow's pinned
//! path. Failures re-route the affected flows (and only those — matching
//! how an SDN controller patches forwarding state) and trigger a re-
//! allocation.

use crate::ratealloc::{max_min_rates, DirectedLink};
use ft_control::routing::{EcmpRoutes, KspRoutes, ServerPath};
use ft_graph::{EdgeId, NodeId};
use ft_topo::Network;

/// Which routing discipline the simulator uses (mirrors `ft-control`'s
/// per-mode choice: ECMP for Clos, KSP for random-graph modes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Hash over equal-cost shortest paths.
    Ecmp,
    /// Hash over the k shortest loopless paths.
    Ksp(usize),
}

/// A flow to simulate.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Source server node.
    pub src: NodeId,
    /// Destination server node.
    pub dst: NodeId,
    /// Volume to transfer (in capacity·time units).
    pub size: f64,
    /// Arrival time.
    pub start: f64,
}

/// A scheduled topology event.
#[derive(Clone, Copy, Debug)]
pub enum NetworkEvent {
    /// Link goes down at the given time.
    LinkDown(f64, EdgeId),
    /// Link comes back at the given time.
    LinkUp(f64, EdgeId),
}

impl NetworkEvent {
    fn time(&self) -> f64 {
        match *self {
            NetworkEvent::LinkDown(t, _) | NetworkEvent::LinkUp(t, _) => t,
        }
    }
}

/// Per-flow outcome.
#[derive(Clone, Debug)]
pub struct FlowRecord {
    /// Index into the submitted flow list.
    pub flow: usize,
    /// Completion time (absolute), or `None` if unfinished at the horizon.
    pub completion: Option<f64>,
    /// Times the flow was re-routed by failures/repairs.
    pub reroutes: usize,
}

/// Simulation output.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-flow outcomes, index-aligned with the submitted flows.
    pub flows: Vec<FlowRecord>,
    /// Time of the last completion (or last event processed).
    pub makespan: f64,
    /// Total re-allocations performed (telemetry).
    pub reallocations: usize,
}

impl SimReport {
    /// Mean flow completion time over finished flows (ignoring arrivals);
    /// `NaN` when nothing finished.
    pub fn mean_fct(&self, specs: &[FlowSpec]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.flows {
            if let Some(c) = r.completion {
                sum += c - specs[r.flow].start;
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Number of unfinished flows.
    pub fn unfinished(&self) -> usize {
        self.flows.iter().filter(|r| r.completion.is_none()).count()
    }
}

struct ActiveFlow {
    idx: usize,
    remaining: f64,
    path: Option<Vec<DirectedLink>>, // None = currently unroutable
    hash: u64,
    src_sw: NodeId,
    dst_sw: NodeId,
    reroutes: usize,
}

/// The simulator. Owns a mutable copy of the network (failures edit the
/// graph) and re-derives routing state as the topology changes.
pub struct Simulator {
    net: Network,
    policy: RouterPolicy,
    capacity: f64,
}

enum Router {
    Ecmp(EcmpRoutes),
    Ksp(KspRoutes),
    /// ECMP on a fabric too large for its `u16` distance rows: every
    /// flow stays parked.
    Unroutable,
}

impl Router {
    /// Builds routing state from scratch; every topology event rebuilds.
    fn build(net: &Network, policy: RouterPolicy) -> Router {
        match policy {
            RouterPolicy::Ecmp => EcmpRoutes::compute(net).map_or(Router::Unroutable, Router::Ecmp),
            RouterPolicy::Ksp(k) => Router::Ksp(KspRoutes::new(net, k)),
        }
    }

    fn route(&self, src: NodeId, dst: NodeId, hash: u64) -> Option<ServerPath> {
        match self {
            Router::Ecmp(r) => r.path(src, dst, hash),
            Router::Ksp(r) => r.path(src, dst, hash),
            Router::Unroutable => None,
        }
    }
}

impl Simulator {
    /// Creates a simulator over (a clone of) the network with unit
    /// capacity per link direction.
    pub fn new(net: &Network, policy: RouterPolicy) -> Self {
        Simulator {
            net: net.clone(),
            policy,
            capacity: 1.0,
        }
    }

    /// Overrides the per-direction link capacity.
    pub fn with_capacity(mut self, capacity: f64) -> Self {
        assert!(capacity > 0.0);
        self.capacity = capacity;
        self
    }

    /// Runs the simulation until all flows finish, all events are
    /// processed and no progress is possible, or `horizon` is reached.
    pub fn run(&mut self, specs: &[FlowSpec], events: &[NetworkEvent], horizon: f64) -> SimReport {
        // total_cmp keeps the sort total (and panic-free) even if a NaN
        // timestamp sneaks in; the ft-des frontend rejects NaN outright.
        let mut events: Vec<NetworkEvent> = events.to_vec();
        events.sort_by(|a, b| a.time().total_cmp(&b.time()));
        let mut next_event = 0usize;

        let mut arrivals: Vec<usize> = (0..specs.len()).collect();
        arrivals.sort_by(|&a, &b| specs[a].start.total_cmp(&specs[b].start));
        let mut next_arrival = 0usize;

        let mut router = Router::build(&self.net, self.policy);
        let mut active: Vec<ActiveFlow> = Vec::new();
        let mut records: Vec<FlowRecord> = (0..specs.len())
            .map(|flow| FlowRecord {
                flow,
                completion: None,
                reroutes: 0,
            })
            .collect();
        let mut now = 0.0f64;
        let mut reallocations = 0usize;

        loop {
            // Admit arrivals at the current time.
            while next_arrival < arrivals.len() && specs[arrivals[next_arrival]].start <= now {
                let idx = arrivals[next_arrival];
                next_arrival += 1;
                let s = &specs[idx];
                let (src_sw, dst_sw) = (self.net.attachment(s.src), self.net.attachment(s.dst));
                let hash = (idx as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03;
                let path = route_links(&router, src_sw, dst_sw, hash);
                active.push(ActiveFlow {
                    idx,
                    remaining: s.size,
                    path,
                    hash,
                    src_sw,
                    dst_sw,
                    reroutes: 0,
                });
            }

            // Allocate rates.
            reallocations += 1;
            let paths: Vec<Vec<DirectedLink>> = active
                .iter()
                .map(|f| f.path.clone().unwrap_or_default())
                .collect();
            let mut rates = max_min_rates(&paths, self.capacity);
            for (f, r) in active.iter().zip(rates.iter_mut()) {
                if f.path.is_none() {
                    *r = 0.0; // unroutable, parked
                }
            }

            // Same-switch (empty-path, routable) flows finish instantly.
            let mut finished_now = Vec::new();
            for (i, f) in active.iter().enumerate() {
                if f.path.as_deref() == Some(&[]) {
                    finished_now.push(i);
                }
            }
            if !finished_now.is_empty() {
                for &i in finished_now.iter().rev() {
                    let f = active.swap_remove(i);
                    records[f.idx].completion = Some(now);
                    records[f.idx].reroutes = f.reroutes;
                }
                continue;
            }

            // Next transition: completion, arrival or event.
            let t_complete = active
                .iter()
                .zip(&rates)
                .filter(|(_, &r)| r > 0.0)
                .map(|(f, &r)| f.remaining / r)
                .fold(f64::INFINITY, f64::min);
            let t_arrival = arrivals
                .get(next_arrival)
                .map(|&i| specs[i].start - now)
                .unwrap_or(f64::INFINITY);
            let t_event = events
                .get(next_event)
                .map(|e| e.time() - now)
                .unwrap_or(f64::INFINITY);
            let dt = t_complete.min(t_arrival).min(t_event);

            if !dt.is_finite() {
                break; // no progress possible: remaining flows are stuck
            }
            if now + dt > horizon {
                now = horizon;
                break;
            }
            now += dt;

            // Progress transfers.
            for (f, &r) in active.iter_mut().zip(&rates) {
                if r > 0.0 && r.is_finite() {
                    f.remaining -= r * dt;
                }
            }
            // Harvest completions.
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining <= 1e-9 {
                    let f = active.swap_remove(i);
                    records[f.idx].completion = Some(now);
                    records[f.idx].reroutes = f.reroutes;
                } else {
                    i += 1;
                }
            }
            // Apply due events.
            let mut topology_changed = false;
            while next_event < events.len() && events[next_event].time() <= now {
                match events[next_event] {
                    NetworkEvent::LinkDown(_, e) => {
                        self.net.graph_mut().remove_edge(e);
                        topology_changed = true;
                    }
                    NetworkEvent::LinkUp(_, e) => {
                        self.net.graph_mut().restore_edge(e);
                        topology_changed = true;
                    }
                }
                next_event += 1;
            }
            if topology_changed {
                router = Router::build(&self.net, self.policy);
                for f in active.iter_mut() {
                    let still_valid = f
                        .path
                        .as_ref()
                        .is_some_and(|p| p.iter().all(|dl| self.net.graph().edge_alive(dl.edge)));
                    if !still_valid {
                        f.path = route_links(&router, f.src_sw, f.dst_sw, f.hash);
                        f.reroutes += 1;
                        records[f.idx].reroutes = f.reroutes;
                    }
                }
            }

            if active.is_empty() && next_arrival >= arrivals.len() && next_event >= events.len() {
                break;
            }
        }

        SimReport {
            flows: records,
            makespan: now,
            reallocations,
        }
    }
}

/// Routes and converts a switch-level path into directed links.
fn route_links(router: &Router, src: NodeId, dst: NodeId, hash: u64) -> Option<Vec<DirectedLink>> {
    if src == dst {
        return Some(Vec::new());
    }
    let path = router.route(src, dst, hash)?;
    let mut out = Vec::with_capacity(path.edges.len());
    for (i, &e) in path.edges.iter().enumerate() {
        let (a, b) = (path.switches[i], path.switches[i + 1]);
        out.push(DirectedLink {
            edge: e,
            forward: a.0 < b.0,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::{FlatTree, FlatTreeConfig, Mode};
    use ft_topo::fat_tree;

    fn k4() -> Network {
        fat_tree(4).unwrap()
    }

    fn server(net: &Network, i: usize) -> NodeId {
        net.servers().nth(i).unwrap()
    }

    #[test]
    fn single_flow_fct() {
        let net = k4();
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        // inter-pod flow of size 2 at unit capacity → FCT 2
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 2.0,
            start: 0.0,
        }];
        let rep = sim.run(&specs, &[], 1e9);
        assert_eq!(rep.flows[0].completion, Some(2.0));
        assert_eq!(rep.unfinished(), 0);
        assert!((rep.mean_fct(&specs) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn same_switch_flow_instant() {
        let net = k4();
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 1), // same edge switch in k=4
            size: 5.0,
            start: 3.0,
        }];
        let rep = sim.run(&specs, &[], 1e9);
        assert_eq!(rep.flows[0].completion, Some(3.0));
    }

    #[test]
    fn contending_flows_share() {
        let net = k4();
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        // two flows from the same server's edge uplink... same src server
        // to two different pods: they share the single server NIC? No —
        // server links are not modeled; they share switch links only if
        // hashed onto the same path. Use two flows with identical endpoints
        // and same hash-bucket risk: instead test sharing via same switch
        // pair by using both servers of one edge to one destination edge.
        let s_edge0_a = server(&net, 0);
        let s_edge0_b = server(&net, 1);
        let dst_a = server(&net, 8);
        let dst_b = server(&net, 9);
        let specs = [
            FlowSpec {
                src: s_edge0_a,
                dst: dst_a,
                size: 1.0,
                start: 0.0,
            },
            FlowSpec {
                src: s_edge0_b,
                dst: dst_b,
                size: 1.0,
                start: 0.0,
            },
        ];
        let rep = sim.run(&specs, &[], 1e9);
        // regardless of hashing, both finish in [1, 2]
        for r in &rep.flows {
            let c = r.completion.unwrap();
            assert!((1.0..=2.0 + 1e-9).contains(&c), "completion {c}");
        }
    }

    #[test]
    fn staggered_arrivals() {
        let net = k4();
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        let specs = [
            FlowSpec {
                src: server(&net, 0),
                dst: server(&net, 8),
                size: 1.0,
                start: 0.0,
            },
            FlowSpec {
                src: server(&net, 0),
                dst: server(&net, 8),
                size: 1.0,
                start: 10.0,
            },
        ];
        let rep = sim.run(&specs, &[], 1e9);
        assert_eq!(rep.flows[0].completion, Some(1.0));
        assert_eq!(rep.flows[1].completion, Some(11.0));
    }

    #[test]
    fn horizon_truncates() {
        let net = k4();
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 100.0,
            start: 0.0,
        }];
        let rep = sim.run(&specs, &[], 5.0);
        assert_eq!(rep.unfinished(), 1);
        assert_eq!(rep.makespan, 5.0);
    }

    #[test]
    fn link_failure_reroutes() {
        let net = k4();
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 10.0,
            start: 0.0,
        }];
        // run once to learn the chosen path, then fail its first switch
        // link mid-transfer
        let mut probe = Simulator::new(&net, RouterPolicy::Ecmp);
        let _ = probe.run(&specs, &[], 1e9);
        // find the edge uplink the flow uses: fail ALL but one core so a
        // reroute must happen. Simpler: fail one specific agg-core edge and
        // check the flow still completes (rerouted or unaffected).
        let some_core_link = net
            .graph()
            .edges()
            .find(|&(_, a, b)| {
                use ft_topo::DeviceKind::*;
                matches!(
                    (net.kind(a), net.kind(b)),
                    (Core, Aggregation) | (Aggregation, Core)
                )
            })
            .map(|(e, _, _)| e)
            .unwrap();
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        let rep = sim.run(&specs, &[NetworkEvent::LinkDown(5.0, some_core_link)], 1e9);
        assert_eq!(rep.unfinished(), 0, "flow must survive the failure");
        assert!(rep.flows[0].completion.unwrap() >= 10.0);
    }

    #[test]
    fn failure_and_repair_cycle() {
        let net = k4();
        // sever *all* core links of one aggregation switch then restore
        let agg = net
            .switches()
            .find(|&v| net.kind(v) == ft_topo::DeviceKind::Aggregation)
            .unwrap();
        let agg_core: Vec<_> = net
            .graph()
            .edges()
            .filter(|&(_, a, b)| {
                (a == agg && net.kind(b) == ft_topo::DeviceKind::Core)
                    || (b == agg && net.kind(a) == ft_topo::DeviceKind::Core)
            })
            .map(|(e, _, _)| e)
            .collect();
        assert_eq!(agg_core.len(), 2);
        let mut events = Vec::new();
        for &e in &agg_core {
            events.push(NetworkEvent::LinkDown(1.0, e));
        }
        for &e in &agg_core {
            events.push(NetworkEvent::LinkUp(3.0, e));
        }
        let specs = [FlowSpec {
            src: server(&net, 0),
            dst: server(&net, 8),
            size: 10.0,
            start: 0.0,
        }];
        let mut sim = Simulator::new(&net, RouterPolicy::Ecmp);
        let rep = sim.run(&specs, &events, 1e9);
        assert_eq!(rep.unfinished(), 0);
    }

    #[test]
    fn ksp_policy_on_flat_tree_global_mode() {
        let ftree = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
        let net = ftree.materialize(&Mode::GlobalRandom).unwrap();
        let mut sim = Simulator::new(&net, RouterPolicy::Ksp(8));
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..6)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[servers.len() - 1 - i],
                size: 1.0,
                start: 0.0,
            })
            .collect();
        let rep = sim.run(&specs, &[], 1e9);
        assert_eq!(rep.unfinished(), 0);
        assert!(rep.makespan >= 1.0);
    }

    #[test]
    fn deterministic_repeat() {
        let net = k4();
        let servers: Vec<NodeId> = net.servers().collect();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec {
                src: servers[i],
                dst: servers[(i + 5) % servers.len()],
                size: 1.0 + i as f64,
                start: 0.0,
            })
            .collect();
        let r1 = Simulator::new(&net, RouterPolicy::Ecmp).run(&specs, &[], 1e9);
        let r2 = Simulator::new(&net, RouterPolicy::Ecmp).run(&specs, &[], 1e9);
        for (a, b) in r1.flows.iter().zip(&r2.flows) {
            assert_eq!(a.completion, b.completion);
        }
        assert_eq!(r1.makespan, r2.makespan);
    }
}
