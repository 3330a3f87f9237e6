//! Average server-pair path length (Figures 5 and 6).
//!
//! Rather than running BFS per server (`k³/4` sources at k = 32), the
//! implementation runs one BFS per *switch that hosts servers* and weights
//! each switch pair by the number of server pairs attached to it:
//!
//! ```text
//! APL = [ Σ_{a,b} n_a·n_b·(d(a,b) + 2)  −  Σ_a n_a·2 ] / [N·(N−1)]
//! ```
//!
//! where `n_a` is the server count on switch `a`, `d` the switch-graph BFS
//! distance, `+2` the two server–switch hops, and the subtracted term
//! removes self-pairs (a server to itself). Distinct servers on the same
//! switch are correctly counted at distance 2.
//!
//! Distances come from the workspace's one hop-distance table, the `u16`
//! [`DistMatrix`] filled by the multi-source bitset BFS kernel
//! (DESIGN.md §15). It fits any switch count whose hop counts stay below
//! 65 535; a network with a pair farther apart gets no rows, and the
//! metrics report it as they report a disconnected one (see
//! [`SwitchDistances`]). One table serves every metric: [`SwitchDistances`]
//! holds the rows for all server-hosting switches, and the `*_with`
//! variants ([`average_server_path_length_with`],
//! [`average_intra_pod_path_length_with`]) reuse it — a caller that needs
//! both averages (`ftctl metrics`, an `ft-serve` path fill) builds the
//! table once. The float accumulation order is unchanged from the original
//! per-call fills, so every reported average is bit-identical.

use ft_graph::{id32, Csr, DistMatrix, Graph, NodeId, UNREACHABLE, UNREACHABLE16};
use ft_topo::{DedupedApsp, Network, SymmetryClasses};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Cached registry handles: hosting-switch table computations and BFS
/// rows filled, and the rows of symmetry-deduplicated tables. Recorded
/// once per table build, never per row.
struct ApspCounters {
    computations: &'static ft_obs::Counter,
    rows: &'static ft_obs::Counter,
    dedup_rows: &'static ft_obs::Counter,
}

fn obs() -> &'static ApspCounters {
    static CELL: OnceLock<ApspCounters> = OnceLock::new();
    CELL.get_or_init(|| ApspCounters {
        computations: ft_obs::registry::counter("ft_metrics_apsp_total"),
        rows: ft_obs::registry::counter("ft_metrics_apsp_rows_total"),
        dedup_rows: ft_obs::registry::counter("ft_metrics_dedup_apsp_rows_total"),
    })
}

/// Builds the partial APSP table for the given source switches, batched
/// multi-source BFS over a frozen CSR view. Row `i` belongs to
/// `sources[i]`. Rows are bit-identical for every `FT_THREADS` value, so
/// every float accumulation downstream is too. `None` when a hop count
/// would not fit the table's `u16` entries.
fn source_table(sg: &Graph, sources: &[usize]) -> Option<DistMatrix> {
    let c = obs();
    c.computations.incr();
    c.rows.add(sources.len() as u64);
    let _span = ft_obs::span!(
        "metrics.apsp",
        sources = sources.len(),
        nodes = sg.node_count()
    );
    let nodes: Vec<NodeId> = sources.iter().map(|&i| NodeId(id32(i))).collect();
    // DistanceOverflow is the only possible error: the sources enumerate
    // the graph's own switches, so NodeOutOfBounds cannot happen.
    DistMatrix::compute_from_csr(&Csr::from_graph(sg), &nodes).ok()
}

/// The symmetry-deduplicated table of `net`'s switch distances, over its
/// switch graph `sg`: the symmetry classes (`metrics.symmetry` span, which
/// also builds the graph's CSR), then one BFS row per class over the same
/// CSR (`metrics.dedup_apsp` span, `ft_metrics_dedup_apsp_rows_total`
/// counter). `metrics.apsp` and its counters stay with the hosting-switch
/// table of [`SwitchDistances`]. `None` only when a hop count would not
/// fit the table's `u16` entries.
pub(crate) fn deduped_apsp(net: &Network, sg: &Graph) -> Option<DedupedApsp> {
    let nodes = net.num_switches();
    let (csr, classes) = {
        let mut span = ft_obs::span!("metrics.symmetry", switches = nodes);
        let csr = Csr::from_graph(sg);
        let classes = SymmetryClasses::from_csr(net, &csr);
        if let Some(s) = span.as_mut() {
            s.field("classes", classes.class_count());
        }
        (csr, classes)
    };
    let rows = classes.class_count();
    let _span = ft_obs::span!("metrics.dedup_apsp", sources = rows, nodes = nodes);
    obs().dedup_rows.add(rows as u64);
    DedupedApsp::with_classes(&csr, classes, ft_graph::par::thread_count()).ok()
}

/// Switch-graph distances from every server-hosting switch, computed once
/// and shared across the path-length metrics.
///
/// The `*_with` metric variants reuse one of these instead of re-running
/// APSP per metric.
///
/// The table holds `u16` hop counts, which fit every network whose
/// connected switch pairs are fewer than 65 535 hops apart, whatever its
/// switch count; only a chain of at least 65 536 switches can break that.
/// Such a network gets no rows at all: [`SwitchDistances::rows`] is 0 and
/// [`SwitchDistances::switch_distance`] is `None` for every switch, so the
/// averages report it as they report a disconnected network (`∞`) and
/// [`path_length_histogram`] is empty.
pub struct SwitchDistances {
    /// Per switch id: row index into `table`, or `u32::MAX` when the
    /// switch has no row (it hosts no servers, or the table overflowed).
    row_index: Vec<u32>,
    /// The hosting switches' rows; `None` when a hop count overflowed.
    table: Option<DistMatrix>,
}

impl SwitchDistances {
    /// Runs the batched BFS fill for all switches of `net` that host at
    /// least one server (no rows on a hop-count overflow; see the type
    /// docs).
    pub fn compute(net: &Network) -> SwitchDistances {
        let counts = net.server_counts();
        let sources: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
        let table = source_table(&net.switch_graph(), &sources);
        let mut row_index = vec![u32::MAX; counts.len()];
        if table.is_some() {
            for (r, &s) in sources.iter().enumerate() {
                // bounds: sources enumerate indices of counts
                row_index[s] = id32(r);
            }
        }
        SwitchDistances { row_index, table }
    }

    /// Number of rows (server-hosting switches).
    pub fn rows(&self) -> usize {
        self.row_index.iter().filter(|&&r| r != u32::MAX).count()
    }

    /// Distance in hops between switches `a` and `b` ([`UNREACHABLE`]
    /// when disconnected), or `None` when `a` has no row: it hosts no
    /// servers, or the table overflowed.
    #[inline]
    pub fn switch_distance(&self, a: usize, b: usize) -> Option<u32> {
        // bounds: callers pass valid switch ids (≤ row_index length)
        let r = self.row_index[a];
        if r == u32::MAX {
            return None;
        }
        let d = self.table.as_ref()?.get(r as usize, b);
        Some(if d == UNREACHABLE16 {
            UNREACHABLE
        } else {
            u32::from(d)
        })
    }
}

/// Average path length in hops over all ordered pairs of distinct servers.
///
/// Returns `NaN` for networks with fewer than two servers, and `∞` if any
/// server pair is disconnected or a hop count overflows the distance table
/// ([`SwitchDistances`]).
pub fn average_server_path_length(net: &Network) -> f64 {
    average_server_path_length_with(net, &SwitchDistances::compute(net))
}

/// [`average_server_path_length`] over a precomputed (shared) distance
/// table — bit-identical to the plain variant.
pub fn average_server_path_length_with(net: &Network, dist: &SwitchDistances) -> f64 {
    let counts = net.server_counts();
    let (sum, pairs) = weighted_sum_with(dist, &counts);
    if pairs == 0 {
        return f64::NAN;
    }
    sum / pairs as f64
}

/// Average path length over ordered pairs of distinct servers *in the same
/// Pod* (Figure 6). Paths may leave the Pod; only the endpoints are
/// restricted.
///
/// Networks without Pod annotations (e.g. Jellyfish, whose servers have no
/// meaningful Pod) are grouped into pseudo-Pods of `fallback_pod_size`
/// consecutive servers — the paper's implicit treatment when it reports
/// intra-Pod numbers for the random graph.
pub fn average_intra_pod_path_length(net: &Network, fallback_pod_size: usize) -> f64 {
    average_intra_pod_path_length_with(net, fallback_pod_size, &SwitchDistances::compute(net))
}

/// [`average_intra_pod_path_length`] over a precomputed (shared) distance
/// table — bit-identical to the plain variant, and the reason the table
/// exists: every Pod group reads the same rows instead of re-running APSP.
pub fn average_intra_pod_path_length_with(
    net: &Network,
    fallback_pod_size: usize,
    dist: &SwitchDistances,
) -> f64 {
    // Group servers by pod (or pseudo-pod).
    let mut groups: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    let annotated = net.servers().any(|s| net.pod(s).is_some());
    for (i, s) in net.servers().enumerate() {
        let pod = if annotated {
            net.pod(s).unwrap_or(u32::MAX)
        } else {
            id32(i / fallback_pod_size.max(1))
        };
        groups.entry(pod).or_default().push(s);
    }
    let mut total = 0.0;
    let mut pairs = 0u64;
    for servers in groups.values() {
        let mut counts = vec![0u32; net.num_switches()];
        for &s in servers {
            counts[net.attachment(s).index()] += 1;
        }
        let (sum, p) = weighted_sum_with(dist, &counts);
        total += sum;
        pairs += p;
    }
    if pairs == 0 {
        return f64::NAN;
    }
    total / pairs as f64
}

/// Histogram of server-pair path lengths: `hist[h]` = number of ordered
/// pairs of distinct servers at `h` hops. Useful for tail analysis beyond
/// the paper's averages.
pub fn path_length_histogram(net: &Network) -> Vec<u64> {
    let counts = net.server_counts();
    let dist = SwitchDistances::compute(net);
    let sources: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
    let mut hist: Vec<u64> = Vec::new();
    let mut bump = |h: usize, n: u64| {
        if h >= hist.len() {
            hist.resize(h + 1, 0);
        }
        hist[h] += n;
    };
    for &a in &sources {
        for &b in &sources {
            let d = match dist.switch_distance(a, b) {
                Some(d) if d != UNREACHABLE => d as usize + 2,
                _ => continue,
            };
            let n = if a == b {
                (counts[a] as u64) * (counts[a] as u64 - 1)
            } else {
                counts[a] as u64 * counts[b] as u64
            };
            if n > 0 {
                bump(d, n);
            }
        }
    }
    hist
}

/// Shared weighted-APSP accumulation. Returns `(Σ weight·hops, pair count)`
/// over ordered pairs of distinct servers; the pair count is an exact
/// integer so callers can test emptiness without comparing floats.
/// Disconnected pairs contribute `∞` (reported with a pair count of 1).
///
/// The source/target iteration order is exactly the old per-call fill's
/// order (sources ascending, then targets ascending), so the float sum is
/// unchanged bit for bit no matter which call site shares the table.
fn weighted_sum_with(dist: &SwitchDistances, counts: &[u32]) -> (f64, u64) {
    let total_servers: u64 = counts.iter().map(|&c| c as u64).sum();
    if total_servers < 2 {
        return (0.0, 0);
    }
    let sources: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
    let mut sum = 0.0f64;
    for &a in &sources {
        let na = counts[a] as f64;
        for &b in &sources {
            let w = na * counts[b] as f64;
            match dist.switch_distance(a, b) {
                Some(d) if d != UNREACHABLE => sum += w * (d as f64 + 2.0),
                // no row (foreign table) or disconnected: the pair cannot
                // be completed
                _ => return (f64::INFINITY, 1),
            }
        }
        // remove self-pairs on switch a (they were counted at d+2 = 2 with
        // weight n_a·n_a; the true same-switch distinct pairs are
        // n_a·(n_a−1), also at 2 hops)
        sum -= 2.0 * na;
    }
    (sum, total_servers * (total_servers - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_topo::{fat_tree, jellyfish_matching_fat_tree};

    #[test]
    fn two_servers_one_switch() {
        use ft_topo::{DeviceKind, NetworkBuilder};
        let mut b = NetworkBuilder::new("x");
        let sw = b.add_switch(DeviceKind::Generic, 4, None).unwrap();
        let s0 = b.add_server(None);
        let s1 = b.add_server(None);
        b.add_link(s0, sw).unwrap();
        b.add_link(s1, sw).unwrap();
        let n = b.build().unwrap();
        assert_eq!(average_server_path_length(&n), 2.0);
    }

    #[test]
    fn single_server_nan() {
        use ft_topo::{DeviceKind, NetworkBuilder};
        let mut b = NetworkBuilder::new("x");
        let sw = b.add_switch(DeviceKind::Generic, 4, None).unwrap();
        let s0 = b.add_server(None);
        b.add_link(s0, sw).unwrap();
        let n = b.build().unwrap();
        assert!(average_server_path_length(&n).is_nan());
    }

    /// Closed-form fat-tree APL: pairs on the same edge switch are 2 hops,
    /// same pod different edge 4 hops, inter-pod 6 hops.
    fn fat_tree_apl_closed_form(k: usize) -> f64 {
        let n = (k * k * k / 4) as f64; // servers
        let spe = (k / 2) as f64; // servers per edge
        let spp = (k * k / 4) as f64; // servers per pod
        let same_edge = n * (spe - 1.0);
        let same_pod = n * (spp - spe);
        let inter_pod = n * (n - spp);
        (2.0 * same_edge + 4.0 * same_pod + 6.0 * inter_pod) / (n * (n - 1.0))
    }

    #[test]
    fn fat_tree_matches_closed_form() {
        for k in [4, 6, 8] {
            let net = fat_tree(k).unwrap();
            let apl = average_server_path_length(&net);
            let expected = fat_tree_apl_closed_form(k);
            assert!(
                (apl - expected).abs() < 1e-9,
                "k = {k}: {apl} vs {expected}"
            );
        }
    }

    #[test]
    fn fat_tree_intra_pod_is_shorter() {
        let net = fat_tree(8).unwrap();
        let intra = average_intra_pod_path_length(&net, 16);
        let global = average_server_path_length(&net);
        assert!(intra < global);
        // intra-pod closed form: same edge 2 hops, else 4
        let spe = 4.0;
        let spp = 16.0;
        let expected = (2.0 * (spe - 1.0) + 4.0 * (spp - spe)) / (spp - 1.0);
        assert!((intra - expected).abs() < 1e-9, "{intra} vs {expected}");
    }

    #[test]
    fn shared_table_matches_per_call_fills() {
        for k in [4, 6, 8] {
            let net = fat_tree(k).unwrap();
            let shared = SwitchDistances::compute(&net);
            let apl = average_server_path_length(&net);
            let intra = average_intra_pod_path_length(&net, 16);
            // bit-identical, not approximately equal: same accumulation
            // order over the same distances
            assert_eq!(
                apl.to_bits(),
                average_server_path_length_with(&net, &shared).to_bits(),
                "k={k} apl"
            );
            assert_eq!(
                intra.to_bits(),
                average_intra_pod_path_length_with(&net, 16, &shared).to_bits(),
                "k={k} intra"
            );
        }
    }

    #[test]
    fn switch_distance_rows_cover_hosting_switches() {
        let net = fat_tree(4).unwrap();
        let dist = SwitchDistances::compute(&net);
        // fat-tree k=4: 8 edge switches host servers, cores/aggs do not
        assert_eq!(dist.rows(), 8);
        let counts = net.server_counts();
        for (sw, &c) in counts.iter().enumerate() {
            if c > 0 {
                assert_eq!(dist.switch_distance(sw, sw), Some(0));
            } else {
                assert_eq!(dist.switch_distance(sw, sw), None);
            }
        }
    }

    #[test]
    fn random_graph_shorter_than_fat_tree() {
        // the paper's core premise: random graphs have shorter paths
        let k = 8;
        let ft = average_server_path_length(&fat_tree(k).unwrap());
        let rg = average_server_path_length(&jellyfish_matching_fat_tree(k, 1).unwrap());
        assert!(rg < ft, "random graph APL {rg} should beat fat-tree {ft}");
    }

    #[test]
    fn jellyfish_intra_pod_uses_pseudo_pods() {
        let k = 6;
        let net = jellyfish_matching_fat_tree(k, 2).unwrap();
        let v = average_intra_pod_path_length(&net, k * k / 4);
        assert!(v.is_finite() && v >= 2.0);
    }

    #[test]
    fn histogram_consistent_with_average() {
        let net = fat_tree(4).unwrap();
        let hist = path_length_histogram(&net);
        let total: u64 = hist.iter().sum();
        let n = net.num_servers() as u64;
        assert_eq!(total, n * (n - 1));
        let mean: f64 = hist
            .iter()
            .enumerate()
            .map(|(h, &c)| h as f64 * c as f64)
            .sum::<f64>()
            / total as f64;
        let apl = average_server_path_length(&net);
        assert!((mean - apl).abs() < 1e-9);
        // fat-tree histogram has mass only at 2, 4, 6
        for (h, &c) in hist.iter().enumerate() {
            if c > 0 {
                assert!(matches!(h, 2 | 4 | 6), "unexpected hop count {h}");
            }
        }
    }

    /// `switches` generic switches in a chain, one server at each end.
    fn chain_with_servers_at_the_ends(switches: u32) -> Network {
        use ft_topo::{DeviceKind, NetworkBuilder};
        let mut b = NetworkBuilder::new("chain");
        let sw: Vec<NodeId> = (0..switches)
            .map(|_| b.add_switch(DeviceKind::Generic, 3, None).unwrap())
            .collect();
        for w in sw.windows(2) {
            b.add_link(w[0], w[1]).unwrap();
        }
        for end in [sw[0], sw[sw.len() - 1]] {
            let s = b.add_server(None);
            b.add_link(s, end).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn hop_count_overflow_reads_as_disconnected() {
        // 65 535 switches, as many as the u16 sentinel: the ends are
        // 65 534 hops apart, which still fits, so the two servers sit
        // 65 534 + 2 hops apart.
        let net = chain_with_servers_at_the_ends(65_535);
        let dist = SwitchDistances::compute(&net);
        assert_eq!(dist.rows(), 2);
        assert_eq!(dist.switch_distance(0, 65_534), Some(65_534));
        assert_eq!(average_server_path_length_with(&net, &dist), 65_536.0);

        // One switch more puts the ends 65 535 hops apart, the u16
        // sentinel: no rows, and the averages read ∞ as for a disconnected
        // network.
        let net = chain_with_servers_at_the_ends(65_536);
        let dist = SwitchDistances::compute(&net);
        assert_eq!(dist.rows(), 0);
        assert_eq!(dist.switch_distance(0, 0), None);
        assert!(average_server_path_length_with(&net, &dist).is_infinite());
        assert!(average_intra_pod_path_length_with(&net, 2, &dist).is_infinite());
        assert!(path_length_histogram(&net).is_empty());
    }

    #[test]
    fn disconnected_pair_infinite() {
        use ft_topo::{DeviceKind, NetworkBuilder};
        let mut b = NetworkBuilder::new("x");
        let sw0 = b.add_switch(DeviceKind::Generic, 4, None).unwrap();
        let sw1 = b.add_switch(DeviceKind::Generic, 4, None).unwrap();
        let s0 = b.add_server(None);
        let s1 = b.add_server(None);
        b.add_link(s0, sw0).unwrap();
        b.add_link(s1, sw1).unwrap();
        let n = b.build().unwrap();
        assert!(average_server_path_length(&n).is_infinite());
    }
}
