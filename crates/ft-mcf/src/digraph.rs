//! The flow solvers' graph: an undirected graph's twin arcs at one
//! capacity.
//!
//! Undirected data center links are full-duplex: each direction carries the
//! full link bandwidth independently. [`CapGraph::from_graph`] therefore
//! expands every undirected edge into two opposing arcs of one capacity
//! per direction — exactly the "all links have one unit bandwidth"
//! setting of the paper (§3.1). Edge i becomes arcs 2i (in the edge's
//! stored direction) and 2i + 1 (against it), so the twin of arc a is
//! `a ^ 1`, and a node's in-arcs are the twins of its out-arcs.
//!
//! The FPTAS re-runs Dijkstra under per-*arc* lengths thousands of times,
//! so this type keeps its own compact arc-indexed adjacency and one
//! shortest-path tree kernel ([`CapGraph::tree`]), instead of reusing the
//! undirected `ft-graph` one (whose lengths are per undirected edge). The
//! kernel runs over a [`Partition`] of the nodes: the nodes themselves
//! ([`Nodes`]), or, for a symmetry quotient's trees, the cells of an
//! equitable partition (`Cells`).

use ft_graph::{id32, Graph};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// One direction of an undirected edge.
#[derive(Clone, Copy, Debug)]
pub struct Arc {
    /// Tail node.
    pub from: usize,
    /// Head node.
    pub to: usize,
}

/// The twin arcs of an undirected multigraph, every arc at one capacity.
#[derive(Clone, Debug)]
pub struct CapGraph {
    arcs: Vec<Arc>,
    /// Out-arcs of each node, ascending.
    out: Vec<Vec<u32>>,
    cap: f64,
}

impl CapGraph {
    /// Expands an undirected graph into opposing arc pairs of capacity
    /// `cap_per_direction` each: the i-th edge of `g.edges()` becomes arc
    /// 2i, in its stored direction, and arc 2i + 1 against it.
    ///
    /// # Panics
    /// When `cap_per_direction` is not positive and finite.
    pub fn from_graph(g: &Graph, cap_per_direction: f64) -> Self {
        assert!(
            cap_per_direction > 0.0 && cap_per_direction.is_finite(),
            "capacity must be positive"
        );
        let mut span = ft_obs::span!("mcf.capgraph", nodes = g.node_count());
        let mut degree = vec![0usize; g.node_count()];
        for (_, a, b) in g.edges() {
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut out: Vec<Vec<u32>> = degree.into_iter().map(Vec::with_capacity).collect();
        let mut arcs = Vec::with_capacity(2 * g.edge_count());
        for (_, a, b) in g.edges() {
            let (a, b) = (a.index(), b.index());
            out[a].push(id32(arcs.len()));
            arcs.push(Arc { from: a, to: b });
            out[b].push(id32(arcs.len()));
            arcs.push(Arc { from: b, to: a });
        }
        if let Some(s) = span.as_mut() {
            s.field("arcs", arcs.len());
        }
        CapGraph {
            arcs,
            out,
            cap: cap_per_direction,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The capacity of every arc.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// The arc with the given index.
    pub fn arc(&self, i: usize) -> Arc {
        self.arcs[i]
    }

    /// All arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Arc indices leaving `v`, in ascending order.
    pub fn out_arcs(&self, v: usize) -> &[u32] {
        &self.out[v]
    }

    /// Arc indices entering `v`: the twins of its out-arcs, in the same
    /// order, which is ascending too. (A self-loop's two arcs are the one
    /// exception: they are each other's twins, so they come in swapped
    /// order.)
    pub fn in_arcs(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        self.out[v].iter().map(|&a| a ^ 1)
    }

    /// Hop count of the shortest walk from `root` to every node, by
    /// breadth-first search; `u32::MAX` where there is none.
    fn hops(&self, root: usize) -> Vec<u32> {
        let mut hops = vec![u32::MAX; self.node_count()];
        hops[root] = 0;
        let mut queue = vec![root];
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &a in &self.out[v] {
                let w = self.arcs[a as usize].to;
                if hops[w] == u32::MAX {
                    // bounds: queued nodes have finite hops, below n
                    hops[w] = hops[v] + 1;
                    queue.push(w);
                }
            }
        }
        hops
    }

    /// Sum of the capacities of `v`'s arcs one way (out of `v`, or into
    /// it: the same arcs' twins).
    pub fn capacity(&self, v: usize) -> f64 {
        self.out[v].iter().map(|_| self.cap).sum()
    }

    /// Dijkstra over the slots of `part`: a source tree from `root`
    /// (`reversed == false`) or a sink tree into it, where every arc's
    /// length is `len(arc)` ≥ 0. Afterwards the scratch holds one entry
    /// per slot: [`DijkstraScratch::distance`] of `part.slot(v)` is the
    /// shortest distance of `v` from (or to) the root, and
    /// [`CapGraph::tree_path`] yields the arcs of a tree path.
    ///
    /// Both trees expand a slot through the same out-arcs and reach the
    /// same neighbour, `arcs[x].to`; a sink tree relaxes, charges and
    /// records the twin `x ^ 1`, the arc from that neighbour back.
    ///
    /// On [`Nodes`] this is a plain single-source (or single-sink)
    /// Dijkstra. On the cells of an equitable partition, `root` must be
    /// alone in its cell and `len` constant over the arcs between any two
    /// cells; expanding a cell then scans one arc per neighbouring cell,
    /// its representative's first (see [`Partition::arc_lists`]). That
    /// suffices because every member of a cell C has the same number of
    /// neighbours in each cell D, so the cell graph's walks from the root
    /// are exactly the projections of the full graph's walks, arc class
    /// for arc class; backwards from any member of D, every cell walk
    /// lifts to a real walk (DESIGN.md §16.5).
    ///
    /// Heap ties break by (distance, slot index), parents are arc ids, and
    /// arcs are relaxed in ascending id order per slot, so every tree is a
    /// pure function of its inputs. A self-loop's twins are the one pair
    /// out of that order, which changes nothing: a self-loop never settles
    /// a slot (its far end is the slot being expanded, whose distance no
    /// length ≥ 0 can lower), and `NetworkBuilder` refuses self-links.
    pub fn tree<P: Partition>(
        &self,
        part: P,
        root: usize,
        reversed: bool,
        len: impl Fn(usize) -> f64,
        scratch: &mut DijkstraScratch,
    ) {
        let lists = part.arc_lists(self);
        let twin = u32::from(reversed);
        let root = part.slot(root);
        scratch.begin(part.slots(self));
        scratch.settle(root, 0.0, u32::MAX);
        scratch.heap.push(HeapArc { d: 0.0, v: root });
        while let Some(HeapArc { d, v }) = scratch.heap.pop() {
            // every heap entry was stamped when pushed this run, so the
            // plain (un-stamped) dist read is valid
            if d > scratch.dist[v] {
                continue;
            }
            for &x in &lists[v] {
                let ai = x ^ twin;
                let c = part.slot(self.arcs[x as usize].to);
                let nd = d + len(ai as usize);
                if nd < scratch.dist_of(c) {
                    scratch.settle(c, nd, ai);
                    scratch.heap.push(HeapArc { d: nd, v: c });
                }
            }
        }
    }

    /// Iterates the arc ids of the tree path between `v`'s slot and the
    /// root of the last [`CapGraph::tree`] run on `part`, from `v`'s slot
    /// to the root: destination → source for a source tree, source →
    /// destination for a sink tree (`reversed`). On cells, consecutive
    /// arcs need not share a node, only a cell; their classes are the
    /// classes of a real tree path, in the same order. Yields nothing when
    /// `v`'s slot was not reached or is the root's.
    pub fn tree_path<'a, P: Partition + 'a>(
        &'a self,
        scratch: &'a DijkstraScratch,
        part: P,
        v: usize,
        reversed: bool,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut cur = part.slot(v);
        if !scratch.reached(cur) {
            cur = usize::MAX;
        }
        std::iter::from_fn(move || {
            let ai = *scratch.parent.get(cur)?;
            if ai == u32::MAX {
                // reached the tree root
                cur = usize::MAX;
                return None;
            }
            let a = self.arcs[ai as usize];
            cur = part.slot(if reversed { a.to } else { a.from });
            Some(ai as usize)
        })
    }
}

/// Where a [`CapGraph::tree`] runs: a partition of the nodes into slots,
/// each expanded through its own list of arcs.
pub trait Partition: Copy {
    /// Whether the trees route a symmetry quotient, whose capacitated
    /// elements are arc classes that one tree path can cross several
    /// times. A compile-time switch, so the node loop pays nothing for it.
    const CLASSES: bool;

    /// Number of slots over `g`'s nodes.
    fn slots(self, g: &CapGraph) -> usize;

    /// The slot of node `v`.
    fn slot(self, v: usize) -> usize;

    /// The arcs that expand each slot, one list per slot of arcs out of
    /// it, in ascending order; a sink tree runs over their twins.
    fn arc_lists<'a>(self, g: &'a CapGraph) -> &'a [Vec<u32>]
    where
        Self: 'a;
}

/// The identity partition: one slot per node, expanded through all its
/// arcs. Trees on it are plain node Dijkstras, and compile to one.
#[derive(Clone, Copy, Debug)]
pub struct Nodes;

impl Partition for Nodes {
    const CLASSES: bool = false;

    fn slots(self, g: &CapGraph) -> usize {
        g.node_count()
    }

    #[inline]
    fn slot(self, v: usize) -> usize {
        v
    }

    fn arc_lists<'a>(self, g: &'a CapGraph) -> &'a [Vec<u32>]
    where
        Self: 'a,
    {
        &g.out
    }
}

impl Partition for &Cells {
    const CLASSES: bool = true;

    fn slots(self, _: &CapGraph) -> usize {
        self.len()
    }

    #[inline]
    fn slot(self, v: usize) -> usize {
        self.cell(v)
    }

    fn arc_lists<'a>(self, _: &'a CapGraph) -> &'a [Vec<u32>]
    where
        Self: 'a,
    {
        &self.arcs
    }
}

/// A partition of a graph's nodes into cells, numbered by their smallest
/// node, which is also each cell's representative, with the arcs that
/// expand each cell in a tree.
///
/// [`Cells::refine`] makes it *equitable*: every two nodes of a cell have
/// the same number of neighbours in every cell (Grohe, Kersting, Mladenov
/// and Selman, "Dimension Reduction via Colour Refinement", ESA 2014).
/// Every arc has its twin, so a node's in-neighbours are its
/// out-neighbours, and one count serves both directions.
///
/// A cell's arc list holds one arc per neighbouring cell: its
/// representative's first (lowest-id) arc into that cell, whose twin is
/// the representative's first arc from it. A tree on the cells needs no
/// other. Its lengths are constant over the arcs between two cells, so
/// every arc from the representative into one cell offers the same
/// distance, and relaxation on a strict `<` lets only the first of them
/// settle the cell (DESIGN.md §16.5).
#[derive(Debug)]
pub(crate) struct Cells {
    /// Cell of each node.
    cell_of: Vec<u32>,
    /// Per cell, its representative's first arc into each neighbouring
    /// cell, in ascending arc order.
    arcs: Vec<Vec<u32>>,
}

impl Cells {
    /// The coarsest equitable partition that refines the node colouring
    /// `colours` (one entry per node; any values), by colour refinement:
    /// every pass splits each cell by its members' sorted neighbour cell
    /// lists, until a pass splits nothing.
    pub(crate) fn refine(g: &CapGraph, colours: &[u32]) -> Cells {
        Cells::refine_from(g, |v, sig| sig.push(colours[v]))
    }

    /// The coarsest equitable partition that refines this one with `root`
    /// alone in its cell.
    ///
    /// Refinement starts from this partition split by each node's hop
    /// distance from the root, which leaves the root alone already. The
    /// start changes nothing but the pass count: in an equitable partition
    /// with the root alone, the nodes within h hops of the root form a
    /// union of cells (by induction on h, since the members of a cell have
    /// equally many neighbours in each cell). So the coarsest such
    /// partition refines the start, and is what refinement from it finds
    /// (DESIGN.md §16.5).
    pub(crate) fn individualize(&self, g: &CapGraph, root: usize) -> Cells {
        let hops = g.hops(root);
        Cells::refine_from(g, |v, sig| {
            // bounds: v < n, and both tables have one entry per node
            sig.extend([self.cell_of[v], hops[v]]);
        })
    }

    /// Colour refinement from the colouring whose node signatures `colour`
    /// writes; returns the result with its arc lists.
    fn refine_from(g: &CapGraph, colour: impl FnMut(usize, &mut Vec<u32>)) -> Cells {
        let n = g.node_count();
        // The first pass only renumbers, by smallest node.
        let (mut cell_of, mut count) = split(n, colour);
        // Each node's signature: its cell, then its neighbours' cells
        // sorted.
        loop {
            let cell = &cell_of;
            let (next, next_count) = split(n, |v, sig| {
                // bounds: v < n, and arcs join nodes < n
                sig.push(cell[v]);
                let out = sig.len();
                sig.extend(g.out[v].iter().map(|&a| cell[g.arcs[a as usize].to]));
                sig[out..].sort_unstable();
            });
            // a pass only ever splits cells, so an unchanged count means an
            // unchanged partition
            if next_count == count {
                return Cells::with_arc_lists(g, next, count);
            }
            (cell_of, count) = (next, next_count);
        }
    }

    /// The `count` cells `cell_of` (numbered by smallest node) with their
    /// arc lists, in one pass over the representatives' arcs.
    fn with_arc_lists(g: &CapGraph, cell_of: Vec<u32>, count: usize) -> Cells {
        // The cell whose list last took an arc into each cell.
        let mut taken = vec![u32::MAX; count];
        let mut list = Vec::new();
        let mut arcs: Vec<Vec<u32>> = Vec::with_capacity(count);
        // cells are numbered by smallest node, so in node order each cell
        // first shows up at its representative
        for (v, &c) in cell_of.iter().enumerate() {
            if c as usize == arcs.len() {
                list.clear();
                for &a in &g.out[v] {
                    // bounds: arcs join nodes < n, whose cells are < count
                    let d = cell_of[g.arcs[a as usize].to] as usize;
                    if taken[d] != c {
                        taken[d] = c;
                        list.push(a);
                    }
                }
                // sized to fit: a quotient solve keeps one partition per root
                arcs.push(list.to_vec());
            }
        }
        Cells { cell_of, arcs }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.arcs.len()
    }

    /// The cell of node `v`.
    #[inline]
    pub(crate) fn cell(&self, v: usize) -> usize {
        self.cell_of[v] as usize
    }

    /// Member count of every cell.
    pub(crate) fn sizes(&self) -> Vec<u32> {
        let mut size = vec![0u32; self.len()];
        for &c in &self.cell_of {
            size[c as usize] += 1;
        }
        size
    }
}
/// Groups the nodes `0..n` by the signature `sign` writes for each; returns
/// each node's group, the groups numbered by their smallest node, and the
/// group count.
fn split(n: usize, mut sign: impl FnMut(usize, &mut Vec<u32>)) -> (Vec<u32>, usize) {
    let mut sig: Vec<u32> = Vec::new();
    let mut start: Vec<usize> = Vec::with_capacity(n + 1);
    for v in 0..n {
        start.push(sig.len());
        sign(v, &mut sig);
    }
    start.push(sig.len());
    let mut id: HashMap<&[u32], u32> = HashMap::new();
    let cell_of = start
        .windows(2)
        .map(|w| {
            let next = id32(id.len());
            *id.entry(&sig[w[0]..w[1]]).or_insert(next)
        })
        .collect();
    (cell_of, id.len())
}

/// Min-heap entry of [`CapGraph::tree`]: minimum distance first, ties
/// broken by slot index so the pop order (and with it every FPTAS dual
/// update) is fully deterministic.
#[derive(Clone, Debug, PartialEq)]
struct HeapArc {
    d: f64,
    v: usize,
}

impl Eq for HeapArc {}

impl Ord for HeapArc {
    fn cmp(&self, o: &Self) -> Ordering {
        o.d.total_cmp(&self.d).then_with(|| o.v.cmp(&self.v))
    }
}

impl PartialOrd for HeapArc {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

/// Reusable state for [`CapGraph::tree`], one entry per slot.
///
/// The FPTAS builds one tree per phase step — tens of thousands of trees
/// on the same graph — and allocating `dist`/`parent`/heap each time
/// dominated the runtime at k ≥ 16. The scratch keeps those buffers alive
/// across runs:
///
/// * `dist`/`parent` entries are valid only where `stamp[v] == gen`; a new
///   run just bumps `gen` instead of re-filling the arrays (O(1) reset, with
///   a full wipe on the ~4-billion-run stamp wraparound).
/// * the binary heap is `clear()`ed, which retains its capacity.
///
/// After the first run at a given slot count, later runs perform no heap
/// allocation. A scratch may be shared across graphs and partitions;
/// `begin` grows the arrays to the largest slot count seen.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    /// Current run id; array entries are valid iff their stamp matches.
    gen: u32,
    /// Per-slot stamp of the run that last wrote `dist`/`parent`.
    stamp: Vec<u32>,
    /// Tentative distance per slot (valid where stamped).
    dist: Vec<f64>,
    /// Tree arc into the slot on the best known path (valid where
    /// stamped; `u32::MAX` marks the root).
    parent: Vec<u32>,
    /// Priority queue, drained at the start of every run.
    heap: BinaryHeap<HeapArc>,
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DijkstraScratch::default()
    }

    /// Starts a new run over `n` slots.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, u32::MAX);
        }
        if self.gen == u32::MAX {
            // stamp wraparound: wipe so old runs can't alias run 1 again
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        self.heap.clear();
    }

    /// Distance of `v` in the current run (`∞` when untouched).
    #[inline]
    fn dist_of(&self, v: usize) -> f64 {
        if self.stamp[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// Records `dist`/`parent` for `v` and marks it touched this run.
    #[inline]
    fn settle(&mut self, v: usize, d: f64, parent_arc: u32) {
        self.stamp[v] = self.gen;
        self.dist[v] = d;
        self.parent[v] = parent_arc;
    }

    /// Whether slot `v` was reached by the last run.
    pub fn reached(&self, v: usize) -> bool {
        v < self.stamp.len() && self.stamp[v] == self.gen && self.dist[v].is_finite()
    }

    /// Shortest-path distance of slot `v` found by the last run, or `None`
    /// when `v` was not reached.
    pub fn distance(&self, v: usize) -> Option<f64> {
        if self.reached(v) {
            Some(self.dist[v])
        } else {
            None
        }
    }

    /// Number of Dijkstra runs this scratch has been warmed up for (each
    /// [`CapGraph::tree`] call is one run).
    /// Exposed so tests can assert how many shortest-path computations a
    /// caller actually performed — e.g. that the FPTAS reachability
    /// pre-check does one SSSP per distinct *source*, not per commodity.
    pub fn runs(&self) -> u32 {
        self.gen
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ft_graph::Graph;
    use rand::prelude::*;

    /// Arc lengths of the tree oracles: dyadic, so every path sum is exact
    /// and equal-length ties are frequent.
    pub(crate) const DYADIC: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

    /// Shortest distances from (or, `reversed`, to) `root` under `len`, by
    /// Bellman–Ford over `g.arcs()`. Under dyadic lengths every path sum
    /// is exact, so any correct Dijkstra matches it bit for bit, whichever
    /// shortest paths it picks.
    pub(crate) fn bellman_ford(
        g: &CapGraph,
        root: usize,
        reversed: bool,
        len: &[f64],
    ) -> Vec<Option<f64>> {
        let mut dist = vec![f64::INFINITY; g.node_count()];
        dist[root] = 0.0;
        let mut changed = true;
        while changed {
            changed = false;
            for (a, arc) in g.arcs().iter().enumerate() {
                let (near, far) = if reversed {
                    (arc.to, arc.from)
                } else {
                    (arc.from, arc.to)
                };
                if dist[near] + len[a] < dist[far] {
                    dist[far] = dist[near] + len[a];
                    changed = true;
                }
            }
        }
        dist.into_iter()
            .map(|d| d.is_finite().then_some(d))
            .collect()
    }

    /// Builds `root`'s tree on `part` under `len` and checks it against
    /// [`bellman_ford`]: every node's slot distance bit for bit; no walk
    /// from an unreached node; and from every reached node a walk that
    /// chains slots from the node's to the root's, ends on an arc at the
    /// root itself, and sums to the distance.
    pub(crate) fn check_tree<P: Partition>(
        g: &CapGraph,
        part: P,
        root: usize,
        reversed: bool,
        len: &[f64],
        scratch: &mut DijkstraScratch,
        at: &str,
    ) {
        g.tree(part, root, reversed, |a| len[a], scratch);
        let want = bellman_ford(g, root, reversed, len);
        // (end toward the root, end away from it) of a tree arc
        let ends = |a: usize| {
            let arc = g.arc(a);
            if reversed {
                (arc.to, arc.from)
            } else {
                (arc.from, arc.to)
            }
        };
        for (v, want) in want.iter().enumerate() {
            let at = format!("{at}, root {root}, reversed {reversed}, node {v}");
            let d = scratch.distance(part.slot(v));
            assert_eq!(d.map(f64::to_bits), want.map(f64::to_bits), "{at}");
            let walk: Vec<usize> = g.tree_path(scratch, part, v, reversed).collect();
            let Some(d) = d else {
                assert!(walk.is_empty(), "{at}: an unreached node walks");
                continue;
            };
            let mut here = part.slot(v);
            for &a in &walk {
                let (near, far) = ends(a);
                assert_eq!(part.slot(far), here, "{at}: broken chain");
                here = part.slot(near);
            }
            assert_eq!(here, part.slot(root), "{at}: walk misses the root");
            if let Some(&last) = walk.last() {
                assert_eq!(ends(last).0, root, "{at}");
            }
            let sum = walk.iter().rev().fold(0.0, |s, &a| s + len[a]);
            assert_eq!(sum.to_bits(), d.to_bits(), "{at}: walk length");
        }
    }

    /// The switch graphs of the cell oracles, each with its symmetry
    /// classes: the fat-tree, the flat-tree's two random modes and
    /// Jellyfish at k = 4–16.
    fn class_graphs() -> Vec<(String, CapGraph, Vec<u32>)> {
        use ft_core::{PodMode, Topology};
        let mut graphs = Vec::new();
        for k in [4, 6, 8, 12, 16] {
            for t in [
                Topology::FatTree,
                Topology::FlatTree(PodMode::LocalRandom),
                Topology::FlatTree(PodMode::GlobalRandom),
                Topology::RandomGraph,
            ] {
                let net = t.build(k, 1).unwrap();
                let classes = ft_topo::SymmetryClasses::compute(&net);
                let g = CapGraph::from_graph(&net.switch_graph(), 1.0);
                graphs.push((format!("{t:?} k={k}"), g, classes.class_slice().to_vec()));
            }
        }
        graphs
    }

    /// `cells` with each cell expanded through every arc of its
    /// representative (its smallest node): the full-neighbourhood trees
    /// that the one-arc-per-cell lists must reproduce.
    fn full_expansion(g: &CapGraph, cells: &Cells) -> Cells {
        let mut reps = Vec::new();
        for (v, &c) in cells.cell_of.iter().enumerate() {
            if c as usize == reps.len() {
                reps.push(v);
            }
        }
        Cells {
            cell_of: cells.cell_of.clone(),
            arcs: reps.iter().map(|&r| g.out[r].clone()).collect(),
        }
    }

    #[test]
    fn cell_trees_match_the_full_expansion() {
        let mut rng = StdRng::seed_from_u64(31);
        let (mut kept, mut full) = (DijkstraScratch::new(), DijkstraScratch::new());
        for (label, g, class) in class_graphs() {
            let base = Cells::refine(&g, &class);
            let size = base.sizes();
            for root in 0..g.node_count() {
                // the partition CellTrees gives a tree rooted here
                let own;
                let cells = if size[base.cell(root)] == 1 {
                    &base
                } else {
                    own = base.individualize(&g, root);
                    &own
                };
                let expanded = full_expansion(&g, cells);
                // lengths tied to the arc classes, drawn per root
                let mut class_len = std::collections::BTreeMap::new();
                let len: Vec<f64> = g
                    .arcs()
                    .iter()
                    .map(|a| {
                        *class_len
                            .entry((class[a.from], class[a.to]))
                            .or_insert_with(|| DYADIC[rng.random_range(0..DYADIC.len())])
                    })
                    .collect();
                for reversed in [false, true] {
                    g.tree(cells, root, reversed, |a| len[a], &mut kept);
                    g.tree(&expanded, root, reversed, |a| len[a], &mut full);
                    for c in 0..cells.len() {
                        let at = format!("{label}, root {root}, reversed {reversed}, cell {c}");
                        let bits = |s: &DijkstraScratch| s.distance(c).map(f64::to_bits);
                        assert_eq!(bits(&kept), bits(&full), "{at}");
                        if kept.reached(c) {
                            assert_eq!(kept.parent[c], full.parent[c], "{at}: parent arc");
                        }
                    }
                }
            }
        }
    }

    /// Any two nodes of a cell have equally many neighbours in every
    /// cell.
    fn assert_equitable(g: &CapGraph, cells: &Cells, at: &str) {
        let counts = |v: usize| {
            let mut cs: Vec<usize> = (g.out_arcs(v).iter())
                .map(|&a| cells.cell(g.arc(a as usize).to))
                .collect();
            cs.sort_unstable();
            cs
        };
        let mut rep_counts: HashMap<usize, Vec<usize>> = HashMap::new();
        for v in 0..g.node_count() {
            let c = cells.cell(v);
            let want = rep_counts.entry(c).or_insert_with(|| counts(v));
            assert_eq!(*want, counts(v), "{at}: node {v} of cell {c}");
        }
    }

    #[test]
    fn seeded_individualize_matches_plain_refinement() {
        let oracle = oracle_graph();
        assert_eq!(oracle.hops(0), [0, 1, 2, 2, 1, 3, u32::MAX]);
        let mut graphs = class_graphs();
        graphs.push(("oracle graph".into(), oracle, vec![0; 7]));
        for (label, g, class) in graphs {
            let base = Cells::refine(&g, &class);
            assert_equitable(&g, &base, &label);
            for root in 0..g.node_count() {
                let at = format!("{label}, root {root}");
                // the root recoloured, and refined from there
                let mut colours = base.cell_of.clone();
                colours[root] = id32(base.len());
                let plain = Cells::refine(&g, &colours);
                let seeded = base.individualize(&g, root);
                assert_eq!(seeded.cell_of, plain.cell_of, "{at}");
                assert_eq!(seeded.arcs, plain.arcs, "{at}");
                assert_equitable(&g, &seeded, &at);
            }
        }
    }

    #[test]
    fn from_graph_doubles_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]);
        let cg = CapGraph::from_graph(&g, 1.0);
        assert_eq!(cg.arc_count(), 4);
        assert_eq!(cg.node_count(), 3);
        assert_eq!(cg.capacity(1), 2.0);
        assert_eq!(cg.capacity(2), 1.0);
        // edge i is arc 2i in its stored direction and 2i + 1 against it
        let ends: Vec<(usize, usize)> = cg.arcs().iter().map(|a| (a.from, a.to)).collect();
        assert_eq!(ends, [(0, 1), (1, 0), (2, 1), (1, 2)]);
        assert_eq!(cg.out_arcs(1), &[1, 3]);
        assert_eq!(cg.in_arcs(1).collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn in_arcs_are_the_twins_of_out_arcs() {
        for g in oracle_graphs() {
            for v in 0..g.node_count() {
                // a brute-force ascending scan of the arcs whose head is v
                let heads: Vec<u32> = (0..g.arc_count())
                    .filter(|&a| g.arc(a).to == v)
                    .map(id32)
                    .collect();
                assert_eq!(g.in_arcs(v).collect::<Vec<_>>(), heads, "node {v}");
                assert_eq!(g.capacity(v), heads.len() as f64);
            }
        }
    }

    /// An undirected graph with parallel edges and an isolated node: the
    /// cycle 0–1–2–3–4, a second 1–2 edge stored the other way, the detour
    /// 2–5–3, and node 6.
    fn oracle_graph() -> CapGraph {
        let cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let edges: Vec<(u32, u32)> = cycle.into_iter().chain([(2, 1), (5, 2), (3, 5)]).collect();
        CapGraph::from_graph(&Graph::from_edges(7, &edges), 1.0)
    }

    /// A 6-node graph and [`oracle_graph`], for the oracle tests. Their
    /// dyadic lengths are drawn per arc, so an arc and its twin differ.
    fn oracle_graphs() -> [CapGraph; 2] {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (2, 5)]);
        [CapGraph::from_graph(&g, 1.0), oracle_graph()]
    }

    /// `trials` seeded dyadic length vectors for `g`.
    fn dyadic_lengths(g: &CapGraph, trials: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..trials)
            .map(|_| {
                (0..g.arc_count())
                    .map(|_| DYADIC[rng.random_range(0..DYADIC.len())])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn node_trees_match_bellman_ford() {
        let mut scratch = DijkstraScratch::new();
        for g in oracle_graphs() {
            for (trial, len) in dyadic_lengths(&g, 20, 27).iter().enumerate() {
                for root in 0..g.node_count() {
                    for reversed in [false, true] {
                        let at = format!("trial {trial}");
                        check_tree(&g, Nodes, root, reversed, len, &mut scratch, &at);
                    }
                }
            }
        }
    }

    #[test]
    fn sink_tree_matches_forward_paths() {
        // v's distance into t's sink tree is t's distance in v's source tree
        let (mut fwd, mut sink) = (DijkstraScratch::new(), DijkstraScratch::new());
        for g in oracle_graphs() {
            for len in dyadic_lengths(&g, 10, 28) {
                for t in 0..g.node_count() {
                    g.tree(Nodes, t, true, |a| len[a], &mut sink);
                    for v in 0..g.node_count() {
                        g.tree(Nodes, v, false, |a| len[a], &mut fwd);
                        let bits = |s: &DijkstraScratch, u| s.distance(u).map(f64::to_bits);
                        assert_eq!(bits(&sink, v), bits(&fwd, t), "{v} -> {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut reused = DijkstraScratch::new();
        for g in oracle_graphs() {
            for len in dyadic_lengths(&g, 5, 29) {
                for root in 0..g.node_count() {
                    for reversed in [false, true] {
                        let mut fresh = DijkstraScratch::new();
                        g.tree(Nodes, root, reversed, |a| len[a], &mut fresh);
                        g.tree(Nodes, root, reversed, |a| len[a], &mut reused);
                        for v in 0..g.node_count() {
                            let at = format!("root {root}, reversed {reversed}, node {v}");
                            let bits = |s: &DijkstraScratch| s.distance(v).map(f64::to_bits);
                            assert_eq!(bits(&fresh), bits(&reused), "{at}");
                            let walk = |s| g.tree_path(s, Nodes, v, reversed).collect::<Vec<_>>();
                            assert_eq!(walk(&fresh), walk(&reused), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_path_unit_lengths() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let cg = CapGraph::from_graph(&g, 1.0);
        let mut s = DijkstraScratch::new();
        cg.tree(Nodes, 0, false, |_| 1.0, &mut s);
        assert_eq!(s.distance(2), Some(2.0));
        let walk: Vec<usize> = cg.tree_path(&s, Nodes, 2, false).collect();
        assert_eq!(walk.len(), 2);
        // arcs chain correctly, destination first
        assert_eq!(cg.arc(walk[0]).to, 2);
        assert_eq!(cg.arc(walk[1]).to, cg.arc(walk[0]).from);
        assert_eq!(cg.arc(walk[1]).from, 0);
    }

    #[test]
    fn shortest_path_src_is_dst() {
        let cg = CapGraph::from_graph(&Graph::new(1), 1.0);
        let mut s = DijkstraScratch::new();
        for reversed in [false, true] {
            cg.tree(Nodes, 0, reversed, |_| 1.0, &mut s);
            assert_eq!(s.distance(0), Some(0.0));
            assert_eq!(cg.tree_path(&s, Nodes, 0, reversed).count(), 0);
        }
    }

    /// One edge 0–1 and an isolated node 2.
    fn edge_and_isolated_node() -> CapGraph {
        CapGraph::from_graph(&Graph::from_edges(3, &[(0, 1)]), 1.0)
    }

    #[test]
    fn tree_path_unreached_and_root_yield_nothing() {
        let cg = edge_and_isolated_node();
        let mut s = DijkstraScratch::new();
        cg.tree(Nodes, 0, false, |_| 1.0, &mut s);
        assert!(s.reached(1) && !s.reached(2));
        assert_eq!(s.distance(2), None);
        assert_eq!(cg.tree_path(&s, Nodes, 2, false).count(), 0);
        assert_eq!(cg.tree_path(&s, Nodes, 0, false).count(), 0);
        assert_eq!(
            cg.tree_path(&s, Nodes, 1, false).collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn scratch_unreachable_then_reachable() {
        let cg = edge_and_isolated_node();
        let mut s = DijkstraScratch::new();
        cg.tree(Nodes, 2, false, |_| 1.0, &mut s);
        assert!(!s.reached(0) && !s.reached(1));
        // stale state from the run that reached nothing must not leak into
        // the next one, nor that run's into the one after
        cg.tree(Nodes, 0, false, |_| 1.0, &mut s);
        assert_eq!(s.distance(1), Some(1.0));
        assert_eq!(
            cg.tree_path(&s, Nodes, 1, false).collect::<Vec<_>>(),
            vec![0]
        );
        assert!(!s.reached(2));
        cg.tree(Nodes, 2, false, |_| 1.0, &mut s);
        assert!(!s.reached(1));
        assert_eq!(cg.tree_path(&s, Nodes, 1, false).count(), 0);
    }

    #[test]
    fn scratch_grows_across_graphs() {
        let mut s = DijkstraScratch::new();
        let small = CapGraph::from_graph(&Graph::from_edges(2, &[(0, 1)]), 1.0);
        small.tree(Nodes, 0, false, |_| 1.0, &mut s);
        assert_eq!(s.distance(1), Some(1.0));
        let big = CapGraph::from_graph(&Graph::from_edges(6, &[(0, 1), (1, 5)]), 1.0);
        big.tree(Nodes, 0, false, |_| 1.0, &mut s);
        assert_eq!(s.distance(5), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        CapGraph::from_graph(&Graph::from_edges(2, &[(0, 1)]), 0.0);
    }

    #[test]
    fn scratch_counts_runs() {
        let cg = CapGraph::from_graph(&Graph::from_edges(3, &[(0, 1), (1, 2)]), 1.0);
        let mut s = DijkstraScratch::new();
        assert_eq!(s.runs(), 0);
        cg.tree(Nodes, 0, false, |_| 1.0, &mut s);
        cg.tree(Nodes, 1, true, |_| 1.0, &mut s);
        assert_eq!(s.runs(), 2);
    }
}
