//! The workspace's one hop-distance table: `u16` storage and a
//! multi-source bitset BFS kernel.
//!
//! Every topology in this workspace has a diameter of a few hops, so
//! [`DistMatrix`] stores all-pairs (or many-source) hop counts as flat
//! `u16`s — a full k = 64 fat-tree table is 5,120² × 2 B ≈ 50 MB — and
//! fills it with a kernel that advances **64 sources per `u64` word** over
//! the frozen [`Csr`]: one level-synchronous sweep propagates each frontier
//! word to its neighbors with a single OR, and `new = next & !seen` (the
//! classic frontier-AND trick) extracts exactly the (source, node) pairs
//! discovered this level. Compared with 64 independent queue-based BFS
//! runs, each adjacency edge is walked once per *batch* instead of once
//! per *source* — the win that makes k = 64 full tables routine
//! (DESIGN.md §15).
//!
//! Totality counts hops, not nodes: the kernel fails with
//! [`GraphError::DistanceOverflow`] only when a BFS level would reach the
//! [`UNREACHABLE16`] sentinel (a pair 65 535 or more hops apart), one check
//! per level, so any node count with a data-center diameter gets a table.
//! The scalar reference [`DistMatrix::compute_scalar_csr`] fills all `n²`
//! entries and keeps a node-count gate instead.

use crate::csr::Csr;
use crate::error::GraphError;
use crate::graph::{id32, Graph, NodeId};
use crate::UNREACHABLE16;
use std::sync::atomic::{AtomicBool, Ordering};

/// Sources advanced per `u64` word by the bitset kernel.
const BATCH: usize = 64;

/// Reusable per-worker state for the multi-source bitset BFS: one `u64`
/// word per node for the seen/frontier/next masks, plus the sparse lists of
/// nodes currently carrying a nonzero word (so a sweep touches only the
/// active part of the graph, not all `n` nodes per level).
#[derive(Default)]
pub struct MsBfsScratch {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    frontier_nodes: Vec<u32>,
    touched: Vec<u32>,
}

/// One batched BFS: distances from up to [`BATCH`] `sources` into `rows`
/// (row `b` = distances from `sources[b]`, row-major, `n` columns each).
///
/// Returns `false`, leaving `rows` unspecified, when some node lies
/// [`UNREACHABLE16`] or more hops from a source: its level would collide
/// with the sentinel.
fn ms_bfs_batch(
    csr: &Csr,
    sources: &[NodeId],
    rows: &mut [u16],
    scratch: &mut MsBfsScratch,
) -> bool {
    let n = csr.node_count();
    debug_assert!(sources.len() <= BATCH);
    debug_assert_eq!(rows.len(), sources.len() * n);
    rows.fill(UNREACHABLE16);
    scratch.seen.clear();
    scratch.seen.resize(n, 0);
    scratch.frontier.clear();
    scratch.frontier.resize(n, 0);
    scratch.next.clear();
    scratch.next.resize(n, 0);
    scratch.frontier_nodes.clear();
    scratch.touched.clear();

    for (b, s) in sources.iter().enumerate() {
        let v = s.index();
        let bit = 1u64 << b;
        // bounds: constructors validated every source id against n
        if scratch.frontier[v] == 0 {
            scratch.frontier_nodes.push(s.0);
        }
        scratch.frontier[v] |= bit;
        scratch.seen[v] |= bit;
        // bounds: b < sources.len() and v < n, so b·n + v < rows.len()
        rows[b * n + v] = 0;
    }

    let mut level: u16 = 0;
    while !scratch.frontier_nodes.is_empty() {
        // Never saturates: reaching the sentinel with a nonempty frontier
        // ends the batch below.
        level = level.saturating_add(1);

        // Propagate every active frontier word to its neighbors with one OR
        // per adjacency entry; `touched` records nodes whose next-word went
        // nonzero so the harvest below stays sparse.
        for &v in &scratch.frontier_nodes {
            // bounds: frontier_nodes only ever holds valid node ids < n
            let fv = scratch.frontier[v as usize];
            for &t in csr.targets(v as usize) {
                let tu = t as usize;
                // bounds: CSR targets are valid node ids < n
                if scratch.next[tu] == 0 {
                    scratch.touched.push(t);
                }
                scratch.next[tu] |= fv;
            }
        }
        for &v in &scratch.frontier_nodes {
            // bounds: same node ids as the propagate loop
            scratch.frontier[v as usize] = 0;
        }
        scratch.frontier_nodes.clear();

        // Harvest: the sources that reach `t` for the first time this level
        // are exactly next & !seen — record the level for each set bit and
        // promote the word to the next frontier.
        for &t in &scratch.touched {
            let tu = t as usize;
            // bounds: touched holds valid node ids < n
            let new = scratch.next[tu] & !scratch.seen[tu];
            scratch.next[tu] = 0;
            if new != 0 {
                scratch.seen[tu] |= new;
                scratch.frontier[tu] = new;
                scratch.frontier_nodes.push(t);
                let mut bits = new;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    // bounds: bit b was seeded from sources[b], so b is a
                    // valid row and b·n + tu < rows.len()
                    rows[b * n + tu] = level;
                    bits &= bits - 1;
                }
            }
        }
        scratch.touched.clear();
        if level == UNREACHABLE16 && !scratch.frontier_nodes.is_empty() {
            return false;
        }
    }
    true
}

/// All-pairs (or many-source) unweighted distances in compact `u16`
/// hop counts.
///
/// The one hop-distance table of the workspace: row-major, filled by the
/// multi-source bitset BFS kernel (see the module docs). Batches of 64
/// sources are distributed over [`crate::par`] workers, and each batch's
/// content depends only on its batch index — the table is bit-identical
/// for every thread count.
///
/// Unreachable pairs hold [`UNREACHABLE16`]; construction fails with
/// [`GraphError::DistanceOverflow`] when a node lies 65 535 or more hops
/// from a source that reaches it (see the module docs).
#[derive(Clone)]
pub struct DistMatrix {
    n: usize,
    dist: Vec<u16>,
}

impl DistMatrix {
    /// Validates that every source id is a node of the graph.
    fn check_sources(n: usize, sources: &[NodeId]) -> Result<(), GraphError> {
        for s in sources {
            if s.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    index: s.index(),
                    node_count: n,
                });
            }
        }
        Ok(())
    }

    /// Full all-pairs table via the bitset kernel,
    /// [`crate::par::thread_count`] workers.
    pub fn compute(g: &Graph) -> Result<Self, GraphError> {
        Self::compute_csr(&Csr::from_graph(g))
    }

    /// [`DistMatrix::compute`] over a pre-built CSR view.
    pub fn compute_csr(csr: &Csr) -> Result<Self, GraphError> {
        Self::compute_csr_with_threads(csr, crate::par::thread_count())
    }

    /// [`DistMatrix::compute_csr`] with an explicit worker count.
    pub fn compute_csr_with_threads(csr: &Csr, threads: usize) -> Result<Self, GraphError> {
        let sources: Vec<NodeId> = (0..csr.node_count()).map(|i| NodeId(id32(i))).collect();
        Self::compute_from_csr_with_threads(csr, &sources, threads)
    }

    /// Distances from the given sources only (a partial table): row `i`
    /// holds the distances from `sources[i]`, so index rows by *position in
    /// `sources`*, not by node id. This is the entry point of the
    /// symmetry-deduplicated APSP in `ft-topo`, which passes one
    /// representative source per equivalence class.
    pub fn compute_from_csr(csr: &Csr, sources: &[NodeId]) -> Result<Self, GraphError> {
        Self::compute_from_csr_with_threads(csr, sources, crate::par::thread_count())
    }

    /// [`DistMatrix::compute_from_csr`] with an explicit worker count.
    pub fn compute_from_csr_with_threads(
        csr: &Csr,
        sources: &[NodeId],
        threads: usize,
    ) -> Result<Self, GraphError> {
        let n = csr.node_count();
        Self::check_sources(n, sources)?;
        let mut dist = vec![0u16; sources.len() * n];
        let overflow = AtomicBool::new(false);
        crate::par::fill_chunks_with(
            threads,
            &mut dist,
            BATCH * n,
            MsBfsScratch::default,
            |batch, chunk, scratch| {
                let first = batch * BATCH;
                // bounds: fill_chunks_with hands out BATCH·n-sized chunks of
                // a sources.len()·n buffer, so the batch covers sources
                // [first, first + chunk.len()/n) and n divides chunk.len()
                let batch_sources = &sources[first..first + chunk.len() / n];
                if !ms_bfs_batch(csr, batch_sources, chunk, scratch) {
                    overflow.store(true, Ordering::Release);
                }
            },
        );
        if overflow.load(Ordering::Acquire) {
            return Err(GraphError::DistanceOverflow { node_count: n });
        }
        Ok(DistMatrix { n, dist })
    }

    /// Sequential scalar reference: one `u16` queue-based BFS per source
    /// ([`Csr::bfs_into_u16`]). Kept as the benchmark baseline and the
    /// correctness oracle for the bitset kernel.
    ///
    /// Its `n²` entries make it a small-graph tool, so it keeps a node-count
    /// gate: graphs of `n ≥ u16::MAX` nodes fail with
    /// [`GraphError::DistanceOverflow`] before anything is allocated.
    pub fn compute_scalar_csr(csr: &Csr) -> Result<Self, GraphError> {
        let n = csr.node_count();
        if n >= usize::from(u16::MAX) {
            return Err(GraphError::DistanceOverflow { node_count: n });
        }
        let mut dist = vec![0u16; n * n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for (i, row) in dist.chunks_mut(n.max(1)).enumerate() {
            csr.bfs_into_u16(NodeId(id32(i)), row, &mut queue);
        }
        Ok(DistMatrix { n, dist })
    }

    /// Distance between row `i` and node `j` (row-major indexing).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u16 {
        // bounds: dist has rows·n entries; i < rows and j < n per the ctor
        self.dist[i * self.n + j]
    }

    /// The full distance row for row index `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u16] {
        // bounds: dist has rows·n entries, so row i ends at (i + 1)·n
        &self.dist[i * self.n..(i + 1) * self.n]
    }

    /// Number of columns (nodes of the underlying graph).
    #[inline]
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of rows (sources).
    #[inline]
    pub fn rows(&self) -> usize {
        self.dist.len().checked_div(self.n).unwrap_or(0)
    }

    /// Wrapping sum of every entry — the regression-gate checksum used by
    /// `ftctl bench`. On connected graphs this is the plain sum of the hop
    /// counts; unreachable pairs add the [`UNREACHABLE16`] sentinel.
    pub fn checksum(&self) -> u64 {
        self.dist
            .iter()
            .fold(0u64, |acc, &d| acc.wrapping_add(u64::from(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances;
    use crate::UNREACHABLE;

    /// The bitset table and the scalar table against the `Graph` BFS
    /// oracle, entry for entry.
    fn assert_matches_allpairs(g: &Graph) {
        let csr = Csr::from_graph(g);
        let dm = DistMatrix::compute_csr_with_threads(&csr, 1).unwrap();
        let scalar = DistMatrix::compute_scalar_csr(&csr).unwrap();
        assert_eq!(dm.width(), g.node_count());
        assert_eq!(dm.rows(), g.node_count());
        for (i, v) in g.nodes().enumerate() {
            let oracle = bfs_distances(g, v);
            for (j, &a) in oracle.iter().enumerate() {
                let d = dm.get(i, j);
                if a == UNREACHABLE {
                    assert_eq!(d, UNREACHABLE16, "({i},{j}) unreachable");
                } else {
                    assert_eq!(u32::from(d), a, "({i},{j})");
                }
                assert_eq!(scalar.get(i, j), d, "scalar vs bitset at ({i},{j})");
            }
        }
    }

    #[test]
    fn matches_allpairs_on_small_graphs() {
        assert_matches_allpairs(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]));
        assert_matches_allpairs(&Graph::from_edges(1, &[]));
        assert_matches_allpairs(&Graph::from_edges(5, &[(0, 1), (3, 4)])); // disconnected
        let mut ring: Vec<(u32, u32)> = (0..9).map(|i| (i, (i + 1) % 9)).collect();
        ring.push((0, 4));
        assert_matches_allpairs(&Graph::from_edges(9, &ring));
    }

    #[test]
    fn matches_allpairs_past_one_batch() {
        // 70 nodes > one 64-source word: ring + chords exercises the
        // second batch and nontrivial levels.
        let mut edges: Vec<(u32, u32)> = (0..70).map(|i| (i, (i + 1) % 70)).collect();
        edges.extend([(0, 35), (10, 50), (20, 60)]);
        assert_matches_allpairs(&Graph::from_edges(70, &edges));
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut edges: Vec<(u32, u32)> = (0..130).map(|i| (i, (i + 1) % 130)).collect();
        edges.extend([(0, 65), (30, 100)]);
        let g = Graph::from_edges(130, &edges);
        let csr = Csr::from_graph(&g);
        let seq = DistMatrix::compute_csr_with_threads(&csr, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = DistMatrix::compute_csr_with_threads(&csr, threads).unwrap();
            assert_eq!(par.dist, seq.dist, "threads={threads}");
        }
    }

    #[test]
    fn partial_rows_follow_source_order() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let csr = Csr::from_graph(&g);
        let dm =
            DistMatrix::compute_from_csr_with_threads(&csr, &[NodeId(2), NodeId(0)], 1).unwrap();
        assert_eq!(dm.rows(), 2);
        assert_eq!(dm.row(0), &[2, 1, 0, 1]);
        assert_eq!(dm.row(1), &[0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_sources_are_allowed() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let csr = Csr::from_graph(&g);
        let dm =
            DistMatrix::compute_from_csr_with_threads(&csr, &[NodeId(1), NodeId(1)], 1).unwrap();
        assert_eq!(dm.row(0), dm.row(1));
        assert_eq!(dm.row(0), &[1, 0, 1]);
    }

    #[test]
    fn rejects_out_of_bounds_source() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let csr = Csr::from_graph(&g);
        assert!(matches!(
            DistMatrix::compute_from_csr_with_threads(&csr, &[NodeId(5)], 1),
            Err(GraphError::NodeOutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn checksum_matches_u32_sum_on_connected_graph() {
        let mut edges: Vec<(u32, u32)> = (0..20).map(|i| (i, (i + 1) % 20)).collect();
        edges.push((3, 12));
        let g = Graph::from_edges(20, &edges);
        let mut u32_sum = 0u64;
        for v in g.nodes() {
            for d in bfs_distances(&g, v) {
                u32_sum = u32_sum.wrapping_add(u64::from(d));
            }
        }
        let dm = DistMatrix::compute(&g).unwrap();
        assert_eq!(dm.checksum(), u32_sum);
    }

    #[test]
    fn overflow_is_a_hop_count_not_a_node_count() {
        // A 70 000-node star has more nodes than a u16 can count, but a
        // diameter of 2: the bitset kernel fills its rows, while the
        // scalar n² table keeps its node gate.
        let star: Vec<(u32, u32)> = (1..70_000).map(|i| (0, i)).collect();
        let csr = Csr::from_graph(&Graph::from_edges(70_000, &star));
        let dm = DistMatrix::compute_from_csr_with_threads(&csr, &[NodeId(0), NodeId(69_999)], 1)
            .unwrap();
        assert_eq!((dm.get(0, 69_999), dm.get(1, 0), dm.get(1, 1)), (1, 1, 2));
        assert_eq!(
            DistMatrix::compute_scalar_csr(&csr).err(),
            Some(GraphError::DistanceOverflow { node_count: 70_000 })
        );

        // A 65 536-node path: its ends are 65 535 hops apart, which would
        // read as the sentinel, but from the middle every node is at most
        // 32 768 hops away.
        let path: Vec<(u32, u32)> = (0..65_535).map(|i| (i, i + 1)).collect();
        let csr = Csr::from_graph(&Graph::from_edges(65_536, &path));
        assert_eq!(
            DistMatrix::compute_from_csr_with_threads(&csr, &[NodeId(0)], 1).err(),
            Some(GraphError::DistanceOverflow { node_count: 65_536 })
        );
        let mid = DistMatrix::compute_from_csr_with_threads(&csr, &[NodeId(32_768)], 1).unwrap();
        assert_eq!((mid.get(0, 0), mid.get(0, 65_535)), (32_768, 32_767));
        assert_eq!(mid.row(0).iter().max(), Some(&32_768));
        // 65 sources make two batches, past the parallel-fill floor: the
        // first batch overflows on its source 0 and the second does not,
        // and the error still reaches the caller from a worker.
        let sources: Vec<NodeId> = (0..65).map(NodeId).collect();
        assert_eq!(
            DistMatrix::compute_from_csr_with_threads(&csr, &sources, 2).err(),
            Some(GraphError::DistanceOverflow { node_count: 65_536 })
        );
    }
}
