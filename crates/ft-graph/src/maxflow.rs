//! Dinic's maximum-flow algorithm on a directed capacitated network.
//!
//! Used in two places:
//!
//! * `ft-mcf`'s `star_exact` solves a hot spot's broadcast/incast — every
//!   commodity at one hub — **exactly**: each Newton step is one max-flow
//!   from the hub into a super-sink, and its min cut either proves the
//!   current λ or gives the next, smaller one. This is how the paper's
//!   Figure 7 solves run below k = 20, instead of the FPTAS;
//! * tests use max-flow as an independent oracle for small LP instances
//!   (single-commodity concurrent flow is exactly max-flow scaled by demand).
//!
//! The implementation is a standard Dinic with BFS level graphs and DFS
//! blocking flows — O(V²E) worst case, far better in practice on unit-ish
//! capacity networks like ours.

/// A directed flow network under construction / after solving.
///
/// Nodes are plain `usize` indices; add edges with [`FlowNetwork::add_edge`].
/// Every edge automatically gets a reverse edge of capacity 0. Undirected
/// links of capacity `c` should be added as two directed edges of capacity
/// `c` each (the convention used by the throughput methodology in the paper,
/// where each direction of a link carries one unit independently).
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// head node of each arc
    to: Vec<usize>,
    /// remaining capacity of each arc
    cap: Vec<f64>,
    /// arcs leaving each node (indices into `to`/`cap`)
    out: Vec<Vec<usize>>,
    /// original capacity, to report flow per arc
    orig_cap: Vec<f64>,
}

impl FlowNetwork {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            to: Vec::new(),
            cap: Vec::new(),
            out: vec![Vec::new(); n],
            orig_cap: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Adds a directed arc `u → v` with the given capacity; returns the arc
    /// index (the implicit reverse arc is `index ^ 1`).
    ///
    /// # Panics
    /// Panics if capacity is negative or NaN, or endpoints out of bounds.
    pub fn add_edge(&mut self, u: usize, v: usize, capacity: f64) -> usize {
        assert!(capacity >= 0.0 && !capacity.is_nan(), "bad capacity");
        assert!(
            u < self.out.len() && v < self.out.len(),
            "node out of bounds"
        );
        let idx = self.to.len();
        self.to.push(v);
        self.cap.push(capacity);
        self.orig_cap.push(capacity);
        self.out[u].push(idx);
        self.to.push(u);
        self.cap.push(0.0);
        self.orig_cap.push(0.0);
        self.out[v].push(idx + 1);
        idx
    }

    /// Flow currently routed over arc `idx` (after [`FlowNetwork::max_flow`]).
    pub fn flow(&self, idx: usize) -> f64 {
        self.orig_cap[idx] - self.cap[idx]
    }

    /// Computes the maximum `s → t` flow, mutating residual capacities.
    ///
    /// Subsequent calls continue from the current residual state, so call on
    /// a fresh (or cloned) network for independent queries.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        if s == t {
            return 0.0;
        }
        const EPS: f64 = 1e-12;
        let n = self.out.len();
        let mut total = 0.0;
        loop {
            // BFS level graph on residual arcs.
            let mut level = vec![usize::MAX; n];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for &a in &self.out[v] {
                    let u = self.to[a];
                    if self.cap[a] > EPS && level[u] == usize::MAX {
                        level[u] = level[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
            if level[t] == usize::MAX {
                break;
            }
            // DFS blocking flow with iteration pointers.
            let mut iter = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, f64::INFINITY, &level, &mut iter, EPS);
                if pushed <= EPS {
                    break;
                }
                total += pushed;
            }
        }
        total
    }

    fn dfs(
        &mut self,
        v: usize,
        t: usize,
        limit: f64,
        level: &[usize],
        iter: &mut [usize],
        eps: f64,
    ) -> f64 {
        if v == t {
            return limit;
        }
        while iter[v] < self.out[v].len() {
            let a = self.out[v][iter[v]];
            let u = self.to[a];
            if self.cap[a] > eps && level[u] == level[v] + 1 {
                let d = self.dfs(u, t, limit.min(self.cap[a]), level, iter, eps);
                if d > eps {
                    self.cap[a] -= d;
                    self.cap[a ^ 1] += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0.0
    }

    /// Returns the source-side node set of a minimum cut after
    /// [`FlowNetwork::max_flow`] has been run (nodes reachable from `s` in
    /// the residual network).
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        const EPS: f64 = 1e-12;
        let mut seen = vec![false; self.out.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &a in &self.out[v] {
                let u = self.to[a];
                if self.cap[a] > EPS && !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut n = FlowNetwork::new(2);
        n.add_edge(0, 1, 3.5);
        assert_eq!(n.max_flow(0, 1), 3.5);
    }

    #[test]
    fn series_bottleneck() {
        let mut n = FlowNetwork::new(3);
        n.add_edge(0, 1, 5.0);
        n.add_edge(1, 2, 2.0);
        assert_eq!(n.max_flow(0, 2), 2.0);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut n = FlowNetwork::new(4);
        n.add_edge(0, 1, 1.0);
        n.add_edge(1, 3, 1.0);
        n.add_edge(0, 2, 2.0);
        n.add_edge(2, 3, 2.0);
        assert_eq!(n.max_flow(0, 3), 3.0);
    }

    #[test]
    fn classic_clrs_example() {
        // CLRS Figure 26.1-style network, max flow 23.
        let mut n = FlowNetwork::new(6);
        n.add_edge(0, 1, 16.0);
        n.add_edge(0, 2, 13.0);
        n.add_edge(1, 2, 10.0);
        n.add_edge(2, 1, 4.0);
        n.add_edge(1, 3, 12.0);
        n.add_edge(3, 2, 9.0);
        n.add_edge(2, 4, 14.0);
        n.add_edge(4, 3, 7.0);
        n.add_edge(3, 5, 20.0);
        n.add_edge(4, 5, 4.0);
        assert_eq!(n.max_flow(0, 5), 23.0);
    }

    #[test]
    fn requires_augmenting_through_reverse_edge() {
        // The crossing-path example where naive greedy fails without
        // residual arcs.
        let mut n = FlowNetwork::new(4);
        n.add_edge(0, 1, 1.0);
        n.add_edge(0, 2, 1.0);
        n.add_edge(1, 2, 1.0);
        n.add_edge(1, 3, 1.0);
        n.add_edge(2, 3, 1.0);
        assert_eq!(n.max_flow(0, 3), 2.0);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut n = FlowNetwork::new(3);
        n.add_edge(0, 1, 1.0);
        assert_eq!(n.max_flow(0, 2), 0.0);
    }

    #[test]
    fn s_equals_t() {
        let mut n = FlowNetwork::new(2);
        n.add_edge(0, 1, 1.0);
        assert_eq!(n.max_flow(0, 0), 0.0);
    }

    #[test]
    fn min_cut_matches_flow() {
        let mut n = FlowNetwork::new(3);
        let a = n.add_edge(0, 1, 5.0);
        let b = n.add_edge(1, 2, 2.0);
        let f = n.max_flow(0, 2);
        let side = n.min_cut_source_side(0);
        assert!(side[0] && side[1] && !side[2]);
        // cut capacity across (1 → 2) equals the flow
        assert_eq!(f, 2.0);
        assert_eq!(n.flow(b), 2.0);
        assert_eq!(n.flow(a), 2.0);
    }

    #[test]
    fn flow_conservation() {
        let mut n = FlowNetwork::new(5);
        let edges = [
            (0, 1, 3.0),
            (0, 2, 2.0),
            (1, 2, 1.0),
            (1, 3, 2.0),
            (2, 3, 2.0),
            (3, 4, 4.0),
            (2, 4, 1.0),
        ];
        let idxs: Vec<usize> = edges.iter().map(|&(u, v, c)| n.add_edge(u, v, c)).collect();
        let f = n.max_flow(0, 4);
        assert!(f > 0.0);
        // net flow into each interior node is zero
        for node in 1..4 {
            let mut net = 0.0;
            for (i, &(u, v, _)) in edges.iter().enumerate() {
                let fl = n.flow(idxs[i]);
                if v == node {
                    net += fl;
                }
                if u == node {
                    net -= fl;
                }
            }
            assert!(net.abs() < 1e-9, "conservation violated at {node}: {net}");
        }
    }
}
