//! Switch-graph symmetry: equivalence classes of automorphic sources and
//! the deduplicated APSP built on them.
//!
//! A fat-tree is massively symmetric: every edge switch in a Pod sees the
//! same aggregation switches, Pods are interchangeable wholesale, and core
//! switches in the same column attach to the same aggregation index of
//! every Pod. Two switches `u, v` related by a graph automorphism `σ` with
//! `σ(u) = v` have *permuted-identical* distance rows — `dist(u, w) =
//! dist(v, σ(w))` — so the all-pairs table only needs one BFS per
//! equivalence class instead of one per switch. At k = 128 that is 129
//! representative rows instead of 20,480 (1 edge + 64 aggregation + 64
//! core classes), which is what makes k = 128 distance tables tractable
//! (DESIGN.md §15).
//!
//! Two *verified* mechanisms compose, and nothing is assumed from naming:
//!
//! 1. **Identical-neighborhood transpositions.** If `sig(u) == sig(v)`
//!    (sorted neighbor-id multisets) and no member of the group appears in
//!    the shared signature (mutual non-adjacency, no self-loops), the
//!    transposition `(u v)` is an automorphism. This collapses the edge
//!    switches of one Pod and the core columns.
//! 2. **Verified Pod block swaps.** For each Pod `p`, the candidate
//!    permutation `π` exchanging `p`'s contiguous switch-id block with the
//!    base Pod's block (element-wise by offset, everything else fixed) is
//!    checked to be an automorphism by comparing `π(N(v))` against
//!    `N(π(v))` for every node `v` of `p`'s block. That check is exact and
//!    complete: `π` moves only the adjacency entries that touch a block,
//!    each of which (the adjacency being symmetric) lies in a block node's
//!    row, and the base Pod's rows pose the same conditions as `p`'s,
//!    since `π` is an involution. This collapses Pods onto the base Pod.
//!
//! On topologies without the symmetry (global random graphs, hybrid zones
//! with randomized Pods), verification simply fails and the classes
//! degrade toward singletons — [`DedupedApsp`] is then exactly a full
//! APSP, never an approximation. The `apsp_scale` integration test holds
//! deduped == full over every mode and zone layout on small k.

use crate::network::Network;
use ft_graph::{Csr, DistMatrix, GraphError, NodeId};
use std::collections::BTreeMap;

/// A contiguous Pod-block involution: switch ids `[a, a + len)` exchanged
/// element-wise with `[b, b + len)`, all other ids fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PodSwap {
    a: u32,
    b: u32,
    len: u32,
}

impl PodSwap {
    #[inline]
    fn apply(&self, w: u32) -> u32 {
        if w >= self.a && w < self.a + self.len {
            w - self.a + self.b
        } else if w >= self.b && w < self.b + self.len {
            w - self.b + self.a
        } else {
            w
        }
    }
}

/// How to read switch `v`'s distance row out of its class representative's
/// row: `dist(v, w) = rep_row[map(w)]`, where `map` applies the Pod swap
/// (if `v`'s Pod was collapsed onto the base Pod) and then the
/// transposition onto the representative. Both stages are involutions, so
/// the map costs O(1) per column with no materialized permutation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColMap {
    swap: Option<PodSwap>,
    transpose: Option<(u32, u32)>,
}

impl ColMap {
    /// Maps column `w` of the switch's full distance row to the
    /// representative's column.
    #[inline]
    pub fn apply(&self, w: u32) -> u32 {
        let w = match self.swap {
            Some(s) => s.apply(w),
            None => w,
        };
        match self.transpose {
            Some((x, y)) if w == x => y,
            Some((x, y)) if w == y => x,
            _ => w,
        }
    }

    /// True when this map is the identity (the switch is its own class
    /// representative).
    pub fn is_identity(&self) -> bool {
        self.swap.is_none() && self.transpose.is_none()
    }
}

/// Verified equivalence classes of the switch graph's sources.
pub struct SymmetryClasses {
    /// Per switch: dense index into [`SymmetryClasses::representatives`].
    class_of: Vec<u32>,
    /// Per switch: column map onto its representative's row.
    col_maps: Vec<ColMap>,
    /// One representative switch id per class, ascending.
    reps: Vec<u32>,
}

/// Sorted neighbor-id multiset of every node of `g` — the grouping key for
/// the transposition mechanism.
fn signatures(csr: &Csr, n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|v| {
            let mut sig = csr.targets(v).to_vec();
            sig.sort_unstable();
            sig
        })
        .collect()
}

/// Checks that the candidate Pod swap `π` is an automorphism: for every
/// node `x` of block `a`, the image of its neighbourhood equals the
/// neighbourhood of `π(x)` (as multisets).
///
/// Those rows are all that need checking. π moves only the adjacency
/// entries that touch a block, and the adjacency is symmetric, so each
/// such entry lies in a block node's row. π is an involution, so row
/// `π(x)`'s condition, `mult(π(x), w) = mult(x, π(w))` for every `w`, is
/// row `x`'s: `mult(x, w) = mult(π(x), π(w))`.
fn verify_swap(csr: &Csr, sigs: &[Vec<u32>], swap: PodSwap) -> bool {
    let mut mapped: Vec<u32> = Vec::new();
    (swap.a..swap.a + swap.len).all(|x| {
        mapped.clear();
        mapped.extend(csr.targets(x as usize).iter().map(|&t| swap.apply(t)));
        mapped.sort_unstable();
        // bounds: block ids are switch ids, and π maps them to switch ids
        mapped == sigs[swap.apply(x) as usize]
    })
}

impl SymmetryClasses {
    /// Computes verified source classes for `net`'s switch graph.
    ///
    /// Always succeeds: when no symmetry verifies, every switch is its own
    /// singleton class and [`DedupedApsp`] degenerates to a full APSP.
    pub fn compute(net: &Network) -> SymmetryClasses {
        Self::from_csr(net, &Csr::from_graph(&net.switch_graph()))
    }

    /// [`SymmetryClasses::compute`] over `csr`, which must be the [`Csr`]
    /// of `net`'s switch graph: for callers that build it once for several
    /// stages.
    pub fn from_csr(net: &Network, csr: &Csr) -> SymmetryClasses {
        let n = net.num_switches();
        let sigs = signatures(csr, n);

        // Mechanism 2 first: per-Pod contiguous switch-id blocks, candidate
        // swap of each Pod onto the base (lowest-id) Pod, verified on the
        // Pod's block rows.
        let mut pod_blocks: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for v in 0..n {
            if let Some(p) = net.pod(NodeId(v as u32)) {
                pod_blocks.entry(p).or_default().push(v as u32);
            }
        }
        // (pod id → verified swap onto the base Pod's block)
        let mut pod_swaps: BTreeMap<u32, PodSwap> = BTreeMap::new();
        let contiguous = |ids: &[u32]| {
            ids.windows(2).all(|w| w[1] == w[0] + 1) // ids are built ascending
        };
        let mut blocks = pod_blocks.iter();
        if let Some((_, base_ids)) = blocks.next() {
            if contiguous(base_ids) && !base_ids.is_empty() {
                let base_start = base_ids[0];
                let len = base_ids.len() as u32;
                for (&p, ids) in blocks {
                    if ids.len() as u32 != len || !contiguous(ids) {
                        continue;
                    }
                    let swap = PodSwap {
                        a: ids[0],
                        b: base_start,
                        len,
                    };
                    if verify_swap(csr, &sigs, swap) {
                        pod_swaps.insert(p, swap);
                    }
                }
            }
        }

        // Mechanism 1: group by signature, keep only groups whose shared
        // signature contains no group member (mutual non-adjacency and no
        // self-loops — the condition under which any transposition within
        // the group is an automorphism).
        let mut groups: BTreeMap<&[u32], Vec<u32>> = BTreeMap::new();
        for (v, sig) in sigs.iter().enumerate() {
            groups.entry(sig.as_slice()).or_default().push(v as u32);
        }
        let mut group_rep: Vec<u32> = (0..n as u32).collect();
        for (sig, members) in &groups {
            if members.len() < 2 {
                continue;
            }
            if members.iter().any(|m| sig.binary_search(m).is_ok()) {
                continue; // adjacency or self-loop inside the group
            }
            let rep = members[0]; // members are ascending: first is min
            for &m in members {
                // bounds: group members are switch ids < n
                group_rep[m as usize] = rep;
            }
        }

        // Compose: Pod-swap v into the base Pod (when verified), then
        // transpose onto its neighborhood-group representative.
        let mut col_maps: Vec<ColMap> = Vec::with_capacity(n);
        let mut rep_of: Vec<u32> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let swap = net.pod(NodeId(v)).and_then(|p| pod_swaps.get(&p).copied());
            let v1 = match swap {
                Some(s) => s.apply(v),
                None => v,
            };
            // bounds: v1 is a valid switch id (π preserves [0, n))
            let rep = group_rep[v1 as usize];
            let transpose = if v1 != rep { Some((v1, rep)) } else { None };
            col_maps.push(ColMap { swap, transpose });
            rep_of.push(rep);
        }

        let mut reps: Vec<u32> = rep_of.clone();
        reps.sort_unstable();
        reps.dedup();
        let class_of: Vec<u32> = rep_of
            .iter()
            .map(|r| {
                // bounds/unwrap-free: every entry of rep_of is in reps by
                // construction, so the search always succeeds
                match reps.binary_search(r) {
                    Ok(i) => i as u32,
                    Err(i) => i as u32,
                }
            })
            .collect();

        SymmetryClasses {
            class_of,
            col_maps,
            reps,
        }
    }

    /// Number of switches covered.
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// True when no switches are covered.
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }

    /// Number of equivalence classes (= BFS rows a deduplicated APSP
    /// computes).
    pub fn class_count(&self) -> usize {
        self.reps.len()
    }

    /// The representative switch ids, ascending.
    pub fn representatives(&self) -> &[u32] {
        &self.reps
    }

    /// Class index of switch `v`.
    pub fn class_of(&self, v: usize) -> u32 {
        // bounds: callers index by valid switch id, checked by len()
        self.class_of[v]
    }

    /// Column map of switch `v` onto its representative's row.
    pub fn col_map(&self, v: usize) -> ColMap {
        // bounds: same as class_of
        self.col_maps[v]
    }

    /// The per-switch class ids as one slice, index-aligned with switch
    /// ids. This is the commodity-class bridge into crates that must not
    /// depend on ft-topo: `ft_mcf`'s symmetry-aggregated solver consumes
    /// exactly this slice (plus a hop-distance oracle) to collapse
    /// equivalent (source-class, sink-class) commodity pairs, instead of
    /// taking the whole [`SymmetryClasses`].
    pub fn class_slice(&self) -> &[u32] {
        &self.class_of
    }

    /// Member count of every class, indexed by class id. On a fat-tree
    /// this is the orbit-size vector the commodity aggregation multiplies
    /// demands by; on an asymmetric (converted) topology every entry is 1.
    pub fn class_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.reps.len()];
        for &c in &self.class_of {
            // bounds: class ids were assigned from positions in reps
            sizes[c as usize] += 1;
        }
        sizes
    }
}

/// All-pairs switch distances stored as one row per symmetry class.
///
/// `get(v, w)` reads `v`'s class representative's row through `v`'s
/// [`ColMap`] — exact distances, never an approximation, because every
/// class was built from verified automorphisms.
pub struct DedupedApsp {
    classes: SymmetryClasses,
    matrix: DistMatrix,
}

impl DedupedApsp {
    /// Computes classes and one representative BFS row per class over
    /// `net`'s switch graph.
    pub fn compute(net: &Network) -> Result<DedupedApsp, GraphError> {
        Self::compute_with_threads(net, ft_graph::par::thread_count())
    }

    /// [`DedupedApsp::compute`] with an explicit worker count.
    pub fn compute_with_threads(net: &Network, threads: usize) -> Result<DedupedApsp, GraphError> {
        let csr = Csr::from_graph(&net.switch_graph());
        Self::with_classes(&csr, SymmetryClasses::from_csr(net, &csr), threads)
    }

    /// One representative BFS row per class of `classes` over `csr`, the
    /// [`Csr`] of a network's switch graph, on `threads` workers;
    /// `classes` must be [`SymmetryClasses::from_csr`] of the same `csr`.
    /// For callers that time or trace the two stages apart.
    pub fn with_classes(
        csr: &Csr,
        classes: SymmetryClasses,
        threads: usize,
    ) -> Result<DedupedApsp, GraphError> {
        let sources: Vec<NodeId> = classes.reps.iter().map(|&r| NodeId(r)).collect();
        let matrix = DistMatrix::compute_from_csr_with_threads(csr, &sources, threads)?;
        Ok(DedupedApsp { classes, matrix })
    }

    /// Distance in hops between switches `v` and `w`.
    #[inline]
    pub fn get(&self, v: usize, w: usize) -> u16 {
        let row = self.classes.class_of(v) as usize;
        let col = self.classes.col_map(v).apply(w as u32) as usize;
        self.matrix.get(row, col)
    }

    /// The symmetry classes behind this table.
    pub fn classes(&self) -> &SymmetryClasses {
        &self.classes
    }

    /// Wrapping sum of the *expanded* table's entries without
    /// materializing it — comparable against [`DistMatrix::checksum`] of a
    /// full APSP.
    pub fn expanded_checksum(&self) -> u64 {
        let n = self.classes.len();
        let mut sum = 0u64;
        for v in 0..n {
            let rep_row = self.matrix.row(self.classes.class_of(v) as usize);
            let map = self.classes.col_map(v);
            if map.is_identity() {
                sum = rep_row
                    .iter()
                    .fold(sum, |acc, &d| acc.wrapping_add(u64::from(d)));
            } else {
                for w in 0..n as u32 {
                    // bounds: map.apply permutes [0, n)
                    sum = sum.wrapping_add(u64::from(rep_row[map.apply(w) as usize]));
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::fat_tree;
    use crate::jellyfish::{jellyfish, JellyfishParams};
    use crate::network::DeviceKind;
    use rand::prelude::*;

    fn full_table(net: &Network) -> DistMatrix {
        let csr = Csr::from_graph(&net.switch_graph());
        DistMatrix::compute_csr_with_threads(&csr, 1).unwrap()
    }

    fn assert_dedup_exact(net: &Network) {
        let full = full_table(net);
        let dd = DedupedApsp::compute_with_threads(net, 1).unwrap();
        let n = net.num_switches();
        for v in 0..n {
            for w in 0..n {
                assert_eq!(dd.get(v, w), full.get(v, w), "get({v},{w})");
            }
        }
        assert_eq!(dd.expanded_checksum(), full.checksum());
    }

    #[test]
    fn fat_tree_classes_collapse_hard() {
        let net = fat_tree(4).unwrap();
        let classes = SymmetryClasses::compute(&net);
        // k = 4: 20 switches collapse to 1 edge + k/2 agg + k/2 core
        // classes = k + 1.
        assert_eq!(classes.len(), 20);
        assert_eq!(classes.class_count(), 5);
        assert_dedup_exact(&net);
    }

    #[test]
    fn fat_tree_k6_and_k8_exact() {
        for k in [6, 8] {
            let net = fat_tree(k).unwrap();
            let classes = SymmetryClasses::compute(&net);
            assert_eq!(classes.class_count(), k + 1, "k={k}");
            assert_dedup_exact(&net);
        }
    }

    #[test]
    fn random_graph_degrades_to_exactness() {
        // Jellyfish has essentially no verified symmetry; the point is not
        // the class count but that the answers stay exact.
        let params = JellyfishParams {
            switches: 24,
            ports: 6,
            servers: 48,
        };
        let net = jellyfish(params, 7).unwrap();
        assert_dedup_exact(&net);
    }

    /// The k-ary fat-tree after one degree-preserving rewiring: an
    /// aggregation switch of Pod `p` and one of Pod `q` (neither the base
    /// Pod, and at different aggregation indices, so in different core
    /// columns) trade one core link each. Returns the network and `[p, q]`,
    /// the two Pods whose swaps onto the base Pod the rewiring breaks.
    fn rewired_fat_tree(k: usize, seed: u64) -> (Network, [u32; 2]) {
        let mut net = fat_tree(k).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pods = k as u32;
        let p = rng.random_range(1..pods);
        let q = 1 + (p + rng.random_range(0..pods - 2)) % (pods - 1);
        let i = rng.random_range(0..k / 2);
        let j = (i + rng.random_range(1..k / 2)) % (k / 2);
        let agg = |pod: u32, index: usize| {
            net.switches()
                .filter(|&v| net.pod(v) == Some(pod) && net.kind(v) == DeviceKind::Aggregation)
                .nth(index)
                .unwrap()
        };
        let (x, y) = (agg(p, i), agg(q, j));
        let mut core_link = |v: NodeId| {
            let links: Vec<_> = net
                .graph()
                .neighbors(v)
                .filter(|&(w, _)| net.kind(w) == DeviceKind::Core)
                .collect();
            links[rng.random_range(0..links.len())]
        };
        let ((cx, ex), (cy, ey)) = (core_link(x), core_link(y));
        let g = net.graph_mut();
        assert!(g.remove_edge(ex) && g.remove_edge(ey));
        g.add_edge(x, cy);
        g.add_edge(y, cx);
        (net, [p, q])
    }

    /// Every Pod pair's block swap, both ways round, on Pods of equal
    /// contiguous blocks.
    fn pod_pair_swaps(net: &Network) -> Vec<PodSwap> {
        let mut blocks: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for v in net.switches() {
            if let Some(p) = net.pod(v) {
                blocks.entry(p).or_default().push(v.0);
            }
        }
        let mut swaps = Vec::new();
        for a in blocks.values() {
            for b in blocks.values() {
                if a != b && a.len() == b.len() {
                    let len = a.len() as u32;
                    swaps.push(PodSwap {
                        a: a[0],
                        b: b[0],
                        len,
                    });
                }
            }
        }
        swaps
    }

    /// Whether `swap` is an automorphism, checked on every node's row.
    fn swap_is_automorphism(csr: &Csr, sigs: &[Vec<u32>], swap: PodSwap) -> bool {
        (0..sigs.len()).all(|v| {
            let mut mapped: Vec<u32> = csr.targets(v).iter().map(|&t| swap.apply(t)).collect();
            mapped.sort_unstable();
            mapped == sigs[swap.apply(v as u32) as usize]
        })
    }

    #[test]
    fn block_rows_decide_every_pod_swap() {
        let mut verdicts = [0usize; 2];
        for k in [4, 6, 8] {
            let rewired = (0..4).map(|seed| rewired_fat_tree(k, seed).0);
            for net in std::iter::once(fat_tree(k).unwrap()).chain(rewired) {
                let csr = Csr::from_graph(&net.switch_graph());
                let sigs = signatures(&csr, net.num_switches());
                for swap in pod_pair_swaps(&net) {
                    let all_rows = swap_is_automorphism(&csr, &sigs, swap);
                    assert_eq!(verify_swap(&csr, &sigs, swap), all_rows, "k={k} {swap:?}");
                    verdicts[usize::from(all_rows)] += 1;
                }
            }
        }
        // both verdicts occur, so the agreement is not vacuous
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn a_broken_pod_swap_is_refused() {
        for k in [4, 6, 8] {
            for seed in 0..6 {
                let (net, broken) = rewired_fat_tree(k, seed);
                let classes = SymmetryClasses::compute(&net);
                let at = format!("k={k} seed={seed} broken Pods {broken:?}");
                assert!(classes.class_count() > k + 1, "{at}: no class split");
                for v in net.switches() {
                    let pod = net.pod(v);
                    let swapped = classes.col_map(v.index()).swap.is_some();
                    if pod.is_some_and(|p| broken.contains(&p)) {
                        assert!(!swapped, "{at}: switch {v:?} swapped onto the base Pod");
                    } else if pod.is_some_and(|p| p > 0) {
                        assert!(swapped, "{at}: intact switch {v:?} lost its swap");
                    }
                }
                assert_dedup_exact(&net);
            }
        }
    }

    #[test]
    fn col_map_identity_and_swap() {
        let id = ColMap::default();
        assert!(id.is_identity());
        assert_eq!(id.apply(17), 17);
        let m = ColMap {
            swap: Some(PodSwap {
                a: 4,
                b: 10,
                len: 3,
            }),
            transpose: Some((0, 2)),
        };
        assert_eq!(m.apply(5), 11); // block a → block b
        assert_eq!(m.apply(11), 5); // block b → block a
        assert_eq!(m.apply(0), 2); // transposition
        assert_eq!(m.apply(2), 0);
        assert_eq!(m.apply(7), 7); // fixed elsewhere
    }
}
