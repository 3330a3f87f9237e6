//! Symmetry-aggregated FPTAS instances — the k = 64/128 scaling layer on
//! top of [`crate::fptas`]: arc classes, the orbit quotient of a commodity
//! set, and its class-cut bound.
//!
//! # Symmetry-aware commodity aggregation
//!
//! [`AggregatedInstance`] collapses the commodity set of a vertex-transitive
//! workload using automorphism classes from `ft_topo::SymmetryClasses`
//! (passed as a plain `&[u32]` node-class slice — ft-mcf stays independent
//! of ft-topo). Commodities whose (source class, destination class,
//! hop distance) triples coincide form one *orbit*; the orbit is replaced
//! by its first member with the orbit's total demand. Arcs are likewise
//! grouped into classes keyed by (tail class, head class), and the one
//! batched loop of [`crate::fptas`] runs the Garg–Könemann packing scheme
//! over *arc classes* as the capacitated elements: a class of `q`
//! unit-capacity arcs has capacity `q`, a path's cost is the sum of its
//! arcs' class lengths, and a push of `f` raises the class length once per
//! occurrence. By symmetry, the averaged orbit of an optimal flow is an
//! optimal *symmetric* flow that loads every arc of a class equally — the
//! quotient packing LP has the same optimum λ, at O(classes²) commodities
//! instead of O(n²).
//!
//! Soundness does not rest on the caller's class slice alone:
//! [`AggregatedInstance::from_commodities`] verifies *closure* — every
//! orbit must contain exactly `|A| · |{w ∈ B : dist(rep_A, w) = h}|`
//! commodities of identical demand — and requires graph-wide uniform arc
//! capacity ([`CapGraph::uniform_cap`]). Any violation yields `None` and
//! the caller falls back to the full instance. With all-singleton classes
//! (converted or otherwise asymmetric topologies) the aggregation
//! degenerates to the identity: the instance is solved exactly as
//! [`crate::fptas::max_concurrent_flow`] would solve the original
//! commodity list, bit for bit.
//!
//! # Distance volume
//!
//! The builders take a hop-distance oracle ([`DistanceOracle`]) — in
//! production the shared `SwitchDistances`/`DedupedApsp` rows computed by
//! ft-metrics — and query it for every representative pair. Alongside the
//! orbits they record the distance volume `Σ_j d_j·hops_j`, which gives
//! the bound `λ ≤ Σ cap / Σ_j d_j·hops_j`. The quotient solve tightens its
//! class-cut bound with it (a tighter demand pre-scale and seed of the
//! gap rule's upper bound) and skips the reachability pre-check, since the builder has
//! already seen every pair reachable. The certified λ never depends on
//! oracle values — only the schedule does.

use crate::digraph::CapGraph;
use crate::fptas::{self, max_concurrent_flow, FptasOptions, McfSolution};
use crate::{Commodity, McfError};
use ft_graph::id32;

/// Hop-distance oracle: `dist(a, b)` in hops, `Some(u32::MAX)` when `b` is
/// unreachable from `a`, `None` when the oracle has no data for the pair
/// (the builders then decline to aggregate). Backed in production by the
/// deduped APSP rows of ft-metrics.
pub type DistanceOracle<'a> = &'a (dyn Fn(usize, usize) -> Option<u32> + Sync);

/// Strictly-positive test that treats NaN as *not* positive: a NaN weight
/// marks no endpoint.
fn positive(w: f64) -> bool {
    w > 0.0
}

/// Grouping of arcs into capacity classes — the capacitated *elements* of
/// the packing scheme. The identity model (one class per arc) is the plain
/// per-arc solver; the node-class model groups arcs by
/// (tail class, head class) for a symmetry quotient.
#[derive(Clone, Debug)]
pub(crate) struct ArcModel {
    /// Class id of each arc; empty for the identity model, where arc `a`
    /// is element `a` (a graph without arcs is the same either way).
    class_of: Vec<u32>,
    /// Total capacity of each class (class size × the uniform arc cap).
    cap: Vec<f64>,
    /// Arcs listed class by class (CSR; empty for the identity model).
    class_arcs: Vec<u32>,
    /// Offset of each class's first arc in `class_arcs`, then the total.
    class_start: Vec<u32>,
}

impl ArcModel {
    /// One class per arc.
    pub(crate) fn identity(g: &CapGraph) -> ArcModel {
        ArcModel {
            class_of: Vec::new(),
            cap: g.arcs().iter().map(|a| a.cap).collect(),
            class_arcs: Vec::new(),
            class_start: Vec::new(),
        }
    }

    /// Groups arcs by (tail class, head class) in first-appearance order.
    /// Requires graph-wide uniform arc capacity (each class's capacity is
    /// `size × cap`, which is only the orbit capacity when every member
    /// has the same cap); returns `None` otherwise.
    fn from_node_classes(g: &CapGraph, node_class: &[u32]) -> Option<ArcModel> {
        use std::collections::HashMap;
        if node_class.len() != g.node_count() {
            return None;
        }
        let unit = g.uniform_cap()?;
        let mut key_to_class: HashMap<(u32, u32), u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(g.arc_count());
        let mut class_size: Vec<u32> = Vec::new();
        for arc in g.arcs() {
            let key = (node_class[arc.from], node_class[arc.to]);
            let o = *key_to_class.entry(key).or_insert_with(|| {
                class_size.push(0);
                id32(class_size.len() - 1)
            });
            class_size[o as usize] += 1;
            class_of.push(o);
        }
        let mut class_arcs: Vec<u32> = (0..g.arc_count()).map(id32).collect();
        class_arcs.sort_by_key(|&a| class_of[a as usize]);
        let mut class_start = vec![0u32];
        class_start.extend(class_size.iter().scan(0u32, |end, &s| {
            *end += s;
            Some(*end)
        }));
        Some(ArcModel {
            class_of,
            cap: class_size.iter().map(|&s| f64::from(s) * unit).collect(),
            class_arcs,
            class_start,
        })
    }

    /// Whether every arc is its own element.
    pub(crate) fn is_identity(&self) -> bool {
        self.class_of.is_empty()
    }

    /// Number of elements (capacity classes).
    pub(crate) fn elements(&self) -> usize {
        self.cap.len()
    }

    /// Capacity of each element.
    pub(crate) fn caps(&self) -> &[f64] {
        &self.cap
    }

    /// Class of arc `a` on a quotient model.
    #[inline]
    pub(crate) fn class(&self, a: usize) -> usize {
        self.class_of[a] as usize
    }

    /// Element of arc `a` on either model.
    pub(crate) fn element(&self, a: usize) -> usize {
        if self.is_identity() {
            a
        } else {
            self.class(a)
        }
    }

    /// Brings `arc_len`, the per-arc view a quotient's shortest-path
    /// trees read, up to date with the class lengths. `spread_len` holds
    /// the class lengths `arc_len` was last written with; only the arcs of
    /// classes whose length changed since are rewritten.
    pub(crate) fn spread(&self, length: &[f64], spread_len: &mut [f64], arc_len: &mut [f64]) {
        for (o, (&l, s)) in length.iter().zip(spread_len.iter_mut()).enumerate() {
            if l.to_bits() != s.to_bits() {
                *s = l;
                // bounds: class_start has one entry per class plus one
                let (lo, hi) = (self.class_start[o], self.class_start[o + 1]);
                for &a in &self.class_arcs[lo as usize..hi as usize] {
                    arc_len[a as usize] = l;
                }
            }
        }
    }
}

/// A symmetry-collapsed commodity instance: one representative commodity
/// per (source class, destination class, hop distance) orbit, with the
/// orbit's total demand, plus the arc-class model the quotient solve runs
/// on. Build with [`AggregatedInstance::from_commodities`] (verified
/// closure over an explicit commodity list) or
/// [`AggregatedInstance::all_to_all`] (symbolic uniform all-to-all, for
/// scales where the full pair list cannot be materialized); solve with
/// [`max_concurrent_flow_aggregated`].
#[derive(Clone, Debug)]
pub struct AggregatedInstance {
    commodities: Vec<Commodity>,
    node_class: Vec<u32>,
    /// Arc count of the graph the instance was built from.
    arcs: usize,
    /// The arc classes, or `None` when no orbit merged (identity).
    model: Option<ArcModel>,
    original: usize,
    /// `Σ_j demand_j · hops_j` over the representative commodities, in
    /// commodity order.
    volume: f64,
}

impl AggregatedInstance {
    /// The representative commodities (orbit demand totals) the solver
    /// runs on.
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// Number of original commodities the instance represents.
    pub fn original_commodities(&self) -> usize {
        self.original
    }

    /// Number of arc classes of the quotient model (equals the arc count
    /// for an identity instance).
    pub fn arc_classes(&self) -> usize {
        self.model.as_ref().map_or(self.arcs, ArcModel::elements)
    }

    /// `true` when no aggregation happened (all orbits are singletons —
    /// e.g. converted/asymmetric topologies where every symmetry class is
    /// a single node). The solver then runs on the original commodity list
    /// and its λ is bit-identical to [`max_concurrent_flow`].
    pub fn is_identity(&self) -> bool {
        self.model.is_none()
    }

    /// The instance over `commodities` with their hop distances `hops`:
    /// the quotient model unless every orbit is a singleton.
    fn new(
        g: &CapGraph,
        node_class: &[u32],
        commodities: Vec<Commodity>,
        hops: &[u32],
        original: usize,
        identity: bool,
    ) -> Option<AggregatedInstance> {
        let model = if identity {
            None
        } else {
            Some(ArcModel::from_node_classes(g, node_class)?)
        };
        let mut volume = 0.0f64;
        for (c, &h) in commodities.iter().zip(hops) {
            volume += c.demand * f64::from(h);
        }
        Some(AggregatedInstance {
            commodities,
            node_class: node_class.to_vec(),
            arcs: g.arc_count(),
            model,
            original,
            volume,
        })
    }

    /// Aggregates an explicit commodity list under the given node classes.
    ///
    /// `node_class` must assign each graph node its automorphism-class id
    /// (`ft_topo::SymmetryClasses::class_slice`); `dist` must answer hop
    /// distances for every commodity pair and every
    /// (class representative, node) pair. The orbit structure is verified
    /// against the representative's distance row — every orbit must be
    /// *closed* (contain exactly `|A| · |{w ∈ B : dist(rep_A, w) = h}|`
    /// members) and demand-uniform, and the graph must have uniform arc
    /// capacity. Returns `None` on any violation, or whenever `dist` lacks
    /// data; callers then solve the original instance instead. Passing
    /// node classes that do not come from verified automorphisms can
    /// produce an instance that passes these checks but misreports λ —
    /// the slice is part of the soundness contract.
    pub fn from_commodities(
        g: &CapGraph,
        node_class: &[u32],
        commodities: &[Commodity],
        dist: DistanceOracle<'_>,
    ) -> Option<AggregatedInstance> {
        use std::collections::HashMap;
        let n = g.node_count();
        if node_class.len() != n {
            return None;
        }
        let classes = node_class
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        // smallest member of each node class, u32::MAX = class unused
        let mut rep = vec![u32::MAX; classes];
        let mut size = vec![0u32; classes];
        for (v, &c) in node_class.iter().enumerate() {
            if rep[c as usize] == u32::MAX {
                rep[c as usize] = id32(v);
            }
            size[c as usize] += 1;
        }

        struct Bucket {
            first: usize,
            count: u32,
            demand_bits: u64,
            src_class: u32,
            dst_class: u32,
            hops: u32,
        }
        let mut slot: HashMap<(u32, u32, u32), usize> = HashMap::new();
        let mut buckets: Vec<Bucket> = Vec::new();
        for (j, c) in commodities.iter().enumerate() {
            if c.src >= n || c.dst >= n {
                return None;
            }
            let h = dist(c.src, c.dst)?;
            if h == 0 || h == u32::MAX {
                return None; // self-pair / unreachable: not aggregatable
            }
            let key = (node_class[c.src], node_class[c.dst], h);
            match slot.get(&key) {
                Some(&b) => {
                    if commodities[buckets[b].first].demand.to_bits() != c.demand.to_bits() {
                        return None; // orbit demands must be uniform
                    }
                    buckets[b].count += 1;
                }
                None => {
                    slot.insert(key, buckets.len());
                    buckets.push(Bucket {
                        first: j,
                        count: 1,
                        demand_bits: c.demand.to_bits(),
                        src_class: key.0,
                        dst_class: key.1,
                        hops: key.2,
                    });
                }
            }
        }

        // Closure verification: the expected orbit size from the source
        // representative's distance row. One scan of all nodes per distinct
        // source class.
        let mut row_cache: HashMap<u32, HashMap<(u32, u32), u32>> = HashMap::new();
        for b in &buckets {
            let row = row_cache.entry(b.src_class).or_insert_with(|| {
                let r = rep[b.src_class as usize] as usize;
                let mut cnt: HashMap<(u32, u32), u32> = HashMap::new();
                for (w, &wc) in node_class.iter().enumerate() {
                    if w == r {
                        continue;
                    }
                    if let Some(h) = dist(r, w) {
                        if h > 0 && h < u32::MAX {
                            *cnt.entry((wc, h)).or_insert(0) += 1;
                        }
                    }
                }
                cnt
            });
            let cnt = row.get(&(b.dst_class, b.hops)).copied().unwrap_or(0);
            let expected = u64::from(size[b.src_class as usize]) * u64::from(cnt);
            if u64::from(b.count) != expected {
                return None; // orbit not closed under the class structure
            }
        }

        let agg: Vec<Commodity> = buckets
            .iter()
            .map(|b| {
                let c = commodities[b.first];
                Commodity {
                    src: c.src,
                    dst: c.dst,
                    demand: f64::from_bits(b.demand_bits) * f64::from(b.count),
                }
            })
            .collect();
        let hops: Vec<u32> = buckets.iter().map(|b| b.hops).collect();
        let identity = buckets.iter().all(|b| b.count == 1);
        AggregatedInstance::new(g, node_class, agg, &hops, commodities.len(), identity)
    }

    /// Symbolic all-to-all aggregation: every ordered pair of *endpoint*
    /// nodes (`weights[v] > 0`) carries demand
    /// `weights[src] · weights[dst]`, without materializing the n² pair
    /// list — this is what makes k = 128 instances representable at all.
    ///
    /// Weights must be constant within each node class (checked bitwise);
    /// classes must come from verified automorphisms and `dist` must cover
    /// every (class representative, endpoint) pair, else `None`. Orbits
    /// are complete by construction, so no closure check is needed beyond
    /// the weight-uniformity test.
    pub fn all_to_all(
        g: &CapGraph,
        node_class: &[u32],
        weights: &[f64],
        dist: DistanceOracle<'_>,
    ) -> Option<AggregatedInstance> {
        use std::collections::HashMap;
        let n = g.node_count();
        if node_class.len() != n || weights.len() != n {
            return None;
        }
        let classes = node_class
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        let mut rep = vec![u32::MAX; classes];
        let mut size = vec![0u32; classes];
        for (v, &c) in node_class.iter().enumerate() {
            if rep[c as usize] == u32::MAX {
                rep[c as usize] = id32(v);
            }
            size[c as usize] += 1;
            // endpoint-ness and weight must be class-invariant
            if weights[v].to_bits() != weights[rep[c as usize] as usize].to_bits() {
                return None;
            }
        }
        let endpoints: u64 = weights.iter().filter(|&&w| w > 0.0).count() as u64;
        let mut commodities: Vec<Commodity> = Vec::new();
        let mut hops: Vec<u32> = Vec::new();
        let mut counted: u64 = 0;
        let mut all_singleton = true;
        for c in 0..classes {
            let r = rep[c] as usize;
            if rep[c] == u32::MAX || !positive(weights[r]) {
                continue;
            }
            if size[c] > 1 {
                all_singleton = false;
            }
            let mut slot: HashMap<(u32, u32), usize> = HashMap::new();
            let base = commodities.len();
            let mut counts: Vec<u32> = Vec::new();
            for w in 0..n {
                if w == r || !positive(weights[w]) {
                    continue;
                }
                let h = dist(r, w)?;
                if h == 0 || h == u32::MAX {
                    return None;
                }
                match slot.get(&(node_class[w], h)) {
                    Some(&i) => counts[i] += 1,
                    None => {
                        slot.insert((node_class[w], h), counts.len());
                        counts.push(1);
                        hops.push(h);
                        commodities.push(Commodity {
                            src: r,
                            dst: w,
                            demand: weights[r] * weights[w],
                        });
                    }
                }
            }
            for (i, cm) in commodities.iter_mut().skip(base).enumerate() {
                let orbit = u64::from(size[c]) * u64::from(counts[i]);
                cm.demand *= orbit as f64;
                counted += orbit;
            }
        }
        // Every ordered endpoint pair must land in exactly one orbit.
        if counted != endpoints.saturating_mul(endpoints.saturating_sub(1)) {
            return None;
        }
        let original = usize::try_from(counted).ok()?;
        AggregatedInstance::new(g, node_class, commodities, &hops, original, all_singleton)
    }
}

/// Solves a symmetry-aggregated instance on its quotient arc-class model,
/// with the one batched loop of [`crate::fptas`]. The reported λ, upper
/// bound, and per-arc utilization are for the *original* instance (the
/// symmetric average of the quotient solution spreads each class's flow
/// equally over its arcs). Identity instances (no collapse) are solved
/// exactly as [`max_concurrent_flow`] would solve the original commodity
/// list.
///
/// # Errors
/// [`McfError::GraphMismatch`] when `g` is not the graph the instance was
/// built from (node and arc counts are cross-checked); otherwise the same
/// contract as [`max_concurrent_flow`].
pub fn max_concurrent_flow_aggregated(
    g: &CapGraph,
    inst: &AggregatedInstance,
    opts: FptasOptions,
) -> Result<McfSolution, McfError> {
    let built = (inst.node_class.len(), inst.arcs);
    let given = (g.node_count(), g.arc_count());
    if built != given {
        return Err(McfError::GraphMismatch { built, given });
    }
    let c = fptas::obs();
    c.aggregated_runs.incr();
    c.aggregated_commodities.set(inst.commodities.len() as u64);
    let Some(model) = &inst.model else {
        return max_concurrent_flow(g, &inst.commodities, opts);
    };
    let mut ub = class_cut_upper_bound(g, &inst.commodities, &inst.node_class);
    if inst.volume > 0.0 {
        let total_cap: f64 = model.caps().iter().sum();
        ub = ub.min(total_cap / inst.volume);
    }
    fptas::solve(g, &inst.commodities, model, Some(ub), opts, true)
}

/// Class-granular cut bound, the quotient analogue of
/// [`crate::node_cut_upper_bound`]: all demand sourced in a node class
/// must cross the arcs leaving that class (and symmetrically for sinks).
/// Coincides with the node cut when every class is a singleton.
fn class_cut_upper_bound(g: &CapGraph, commodities: &[Commodity], node_class: &[u32]) -> f64 {
    let classes = node_class
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut out_cap = vec![0.0f64; classes];
    let mut in_cap = vec![0.0f64; classes];
    for arc in g.arcs() {
        out_cap[node_class[arc.from] as usize] += arc.cap;
        in_cap[node_class[arc.to] as usize] += arc.cap;
    }
    let mut out_dem = vec![0.0f64; classes];
    let mut in_dem = vec![0.0f64; classes];
    for c in commodities {
        out_dem[node_class[c.src] as usize] += c.demand;
        in_dem[node_class[c.dst] as usize] += c.demand;
    }
    let mut best = f64::INFINITY;
    for c in 0..classes {
        if out_dem[c] > 0.0 {
            best = best.min(out_cap[c] / out_dem[c]);
        }
        if in_dem[c] > 0.0 {
            best = best.min(in_cap[c] / in_dem[c]);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DijkstraScratch;
    use crate::exact::max_concurrent_flow_exact;
    use ft_graph::Graph;

    fn unit(n: usize, edges: &[(u32, u32)]) -> CapGraph {
        CapGraph::from_graph(&Graph::from_edges(n, edges), 1.0)
    }

    /// Unit-length hop distances for oracle-backed tests.
    fn hop_table(g: &CapGraph) -> Vec<Vec<u32>> {
        let ones = vec![1.0f64; g.arc_count()];
        let mut scratch = DijkstraScratch::new();
        (0..g.node_count())
            .map(|s| {
                g.shortest_path_tree_with(s, &ones, &mut scratch);
                (0..g.node_count())
                    .map(|t| match scratch.distance(t) {
                        Some(d) => id32(d as usize),
                        None => u32::MAX,
                    })
                    .collect()
            })
            .collect()
    }

    fn all_to_all(n: usize) -> Vec<Commodity> {
        let mut cs = Vec::new();
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    cs.push(Commodity {
                        src: s,
                        dst: t,
                        demand: 1.0,
                    });
                }
            }
        }
        cs
    }

    fn ring4() -> CapGraph {
        unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    /// ring4 has two automorphism classes {0,2} and {1,3}; the 12
    /// all-to-all commodities collapse to 4 orbits.
    fn ring4_quotient() -> (CapGraph, AggregatedInstance) {
        let g = ring4();
        let hops = hop_table(&g);
        let dist = |a: usize, b: usize| Some(hops[a][b]);
        let inst =
            AggregatedInstance::from_commodities(&g, &[0, 1, 0, 1], &all_to_all(4), &dist).unwrap();
        (g, inst)
    }

    #[test]
    fn aggregated_identity_bitwise_matches_batched() {
        // All-singleton classes: the aggregation must degrade to the exact
        // original instance and produce a bit-identical λ.
        let g = unit(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let cs = all_to_all(5);
        let hops = hop_table(&g);
        let dist = |a: usize, b: usize| Some(hops[a][b]);
        let node_class: Vec<u32> = (0..5).map(id32).collect();
        let inst = AggregatedInstance::from_commodities(&g, &node_class, &cs, &dist).unwrap();
        assert!(inst.is_identity());
        assert_eq!(inst.commodities(), &cs[..]);
        assert_eq!(inst.original_commodities(), cs.len());
        assert_eq!(inst.arc_classes(), g.arc_count());
        let opts = FptasOptions::with_epsilon(0.08);
        let agg = max_concurrent_flow_aggregated(&g, &inst, opts).unwrap();
        let full = max_concurrent_flow(&g, &cs, opts).unwrap();
        assert_eq!(agg.lambda.to_bits(), full.lambda.to_bits());
        assert_eq!(agg.upper_bound.to_bits(), full.upper_bound.to_bits());
        assert_eq!(agg.steps, full.steps);
    }

    #[test]
    fn aggregated_ring_collapses_and_matches_full() {
        let (g, inst) = ring4_quotient();
        let cs = all_to_all(4);
        assert!(!inst.is_identity());
        assert_eq!(inst.commodities().len(), 4);
        assert_eq!(inst.original_commodities(), 12);
        // (even, odd) and (odd, even) arcs: two classes of four arcs each
        assert_eq!(inst.arc_classes(), 2);
        let eps = 0.05;
        let opts = FptasOptions::with_epsilon(eps);
        let agg = max_concurrent_flow_aggregated(&g, &inst, opts).unwrap();
        let exact = max_concurrent_flow_exact(&g, &cs).unwrap();
        assert!(agg.lambda <= exact + 1e-6, "{} > {}", agg.lambda, exact);
        assert!(
            agg.lambda >= (1.0 - 3.0 * eps) * exact - 1e-9,
            "aggregated {} below guarantee for exact {}",
            agg.lambda,
            exact
        );
        assert!(agg.lambda <= agg.upper_bound + 1e-9);
        assert!(!agg.budget_exhausted);
        for &u in &agg.utilization {
            assert!(u <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn all_to_all_builder_matches_explicit_aggregation() {
        let g = ring4();
        let cs = all_to_all(4);
        let hops = hop_table(&g);
        let dist = |a: usize, b: usize| Some(hops[a][b]);
        let node_class = [0u32, 1, 0, 1];
        let explicit = AggregatedInstance::from_commodities(&g, &node_class, &cs, &dist).unwrap();
        let weights = vec![1.0f64; 4];
        let symbolic = AggregatedInstance::all_to_all(&g, &node_class, &weights, &dist).unwrap();
        assert_eq!(symbolic.commodities(), explicit.commodities());
        assert_eq!(symbolic.original_commodities(), 12);
        assert!(!symbolic.is_identity());
        // both builders record the full instance's distance volume: every
        // node sends to two neighbours at one hop and one node at two
        assert_eq!(explicit.volume, 4.0 * (1.0 + 1.0 + 2.0));
        assert_eq!(symbolic.volume.to_bits(), explicit.volume.to_bits());
    }

    #[test]
    fn non_closed_commodity_set_rejected() {
        let g = ring4();
        let mut cs = all_to_all(4);
        cs.pop(); // breaks orbit closure
        let hops = hop_table(&g);
        let dist = |a: usize, b: usize| Some(hops[a][b]);
        assert!(AggregatedInstance::from_commodities(&g, &[0, 1, 0, 1], &cs, &dist).is_none());
    }

    #[test]
    fn non_uniform_demand_rejected() {
        let g = ring4();
        let mut cs = all_to_all(4);
        cs[0].demand = 2.0;
        let hops = hop_table(&g);
        let dist = |a: usize, b: usize| Some(hops[a][b]);
        assert!(AggregatedInstance::from_commodities(&g, &[0, 1, 0, 1], &cs, &dist).is_none());
    }

    #[test]
    fn incomplete_oracle_rejected() {
        let g = ring4();
        let cs = all_to_all(4);
        let dist = |_: usize, _: usize| None;
        assert!(AggregatedInstance::from_commodities(&g, &[0, 1, 0, 1], &cs, &dist).is_none());
    }

    #[test]
    fn oracle_disconnection_rejects_aggregation() {
        // An unreachable pair never aggregates; the caller's fallback, the
        // full solve, pins λ to a converged 0.
        let g = unit(3, &[(0, 1)]);
        let cs = [Commodity {
            src: 0,
            dst: 2,
            demand: 1.0,
        }];
        let hops = hop_table(&g);
        let dist = move |a: usize, b: usize| Some(hops[a][b]);
        assert!(AggregatedInstance::from_commodities(&g, &[0, 1, 2], &cs, &dist).is_none());
        let sol = max_concurrent_flow(&g, &cs, FptasOptions::default()).unwrap();
        assert_eq!(sol.lambda, 0.0);
        assert!(!sol.budget_exhausted);
    }

    #[test]
    fn bad_epsilon_rejected() {
        let (g, inst) = ring4_quotient();
        let err =
            max_concurrent_flow_aggregated(&g, &inst, FptasOptions::with_epsilon(0.7)).unwrap_err();
        assert!(matches!(err, McfError::InvalidEpsilon { .. }));
    }

    #[test]
    fn budget_respected_and_reported() {
        // A 12-node path under its reflection: six node classes {i, 11 − i}
        // whose representatives 0..5 each root a source tree, so one phase
        // takes at least six trees and no certificate exists within five.
        let line: Vec<(u32, u32)> = (0..11).map(|v| (v, v + 1)).collect();
        let g = unit(12, &line);
        let hops = hop_table(&g);
        let dist = |a: usize, b: usize| Some(hops[a][b]);
        let node_class: Vec<u32> = (0..12).map(|v: u32| v.min(11 - v)).collect();
        let inst =
            AggregatedInstance::from_commodities(&g, &node_class, &all_to_all(12), &dist).unwrap();
        assert!(!inst.is_identity());
        assert_eq!(fptas::group_commodities(inst.commodities()).len(), 6);
        let sol = max_concurrent_flow_aggregated(
            &g,
            &inst,
            FptasOptions {
                epsilon: 0.01,
                max_steps: Some(5),
            },
        )
        .unwrap();
        assert!(sol.steps <= 5, "every run is capped at the budget");
        // the budget must be *reported*, not silently swallowed
        assert_eq!(sol.stop, fptas::Stop::Budget);
        assert!(sol.budget_exhausted);
        assert!(sol.lambda <= sol.upper_bound);
    }

    #[test]
    fn mismatched_graph_is_an_error() {
        let (_, inst) = ring4_quotient();
        for (g, given) in [
            (unit(5, &[(0, 1), (1, 2), (2, 3), (3, 0)]), (5, 8)),
            (unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), (4, 10)),
        ] {
            let err = max_concurrent_flow_aggregated(&g, &inst, FptasOptions::default())
                .expect_err("a different graph must be rejected");
            assert_eq!(
                err,
                McfError::GraphMismatch {
                    built: (4, 8),
                    given
                }
            );
        }
    }
}
