//! Figure 5: average path length of server pairs in the entire network.
//!
//! Sweeps the fat-tree parameter k and compares fat-tree, the
//! equipment-equivalent random graph, and flat-tree in approximated
//! global-random-graph mode under the §3.2 profiling grid of (m, n) — the
//! combinations of multiples of k/8 with m + n ≤ k/2 that the paper plots.
//!
//! Paper shape: the profiled flat-tree (m = k/8, n = 2k/8) is notably
//! shorter than fat-tree and within ~5% of the random graph.

use ft_core::{FlatTree, FlatTreeConfig, Mode, Topology};
use ft_experiments::{print_figure, rel_diff, sweep, ShapeChecks, SweepOpts};
use ft_metrics::path_length::average_server_path_length;
use ft_metrics::Table;

/// A curve: a baseline, or the global-RG flat-tree at
/// (m, n) = (a·k/8, b·k/8), k/8 rounded.
enum Curve {
    Baseline(Topology),
    FlatTree(usize, usize),
}

/// The curves of the paper's Figure 5 legend.
const CURVES: [(Curve, &str); 7] = [
    (Curve::Baseline(Topology::FatTree), "Fat-tree"),
    (Curve::Baseline(Topology::RandomGraph), "Random graph"),
    (Curve::FlatTree(1, 1), "Flat-tree(m=1k/8,n=1k/8)"),
    (Curve::FlatTree(1, 2), "Flat-tree(m=1k/8,n=2k/8)"),
    (Curve::FlatTree(1, 3), "Flat-tree(m=1k/8,n=3k/8)"),
    (Curve::FlatTree(2, 1), "Flat-tree(m=2k/8,n=1k/8)"),
    (Curve::FlatTree(2, 2), "Flat-tree(m=2k/8,n=2k/8)"),
];

fn main() {
    let opts = SweepOpts::from_args(32); // path length is cheap: full sweep
    let series = sweep(&opts, &CURVES, 1, |k, curve, seed| {
        let net = match *curve {
            Curve::Baseline(topology) => topology.build(k, seed).unwrap(),
            Curve::FlatTree(a, b) => {
                let unit = ((k as f64) / 8.0).round().max(1.0) as usize;
                if (a + b) * unit > k / 2 {
                    return None; // off the grid: m + n ≤ k/2
                }
                let cfg = FlatTreeConfig::for_fat_tree_k_mn(k, a * unit, b * unit).unwrap();
                let ft = FlatTree::new(cfg).unwrap();
                ft.materialize(&Mode::GlobalRandom).unwrap()
            }
        };
        Some(average_server_path_length(&net))
    });
    let table = Table::from_series("k", &series);
    print_figure(
        "Figure 5: average path length of server pairs, entire network",
        "paper shape: flat-tree(m=k/8, n=2k/8) ≪ fat-tree, within ~5% of random graph",
        &table,
        opts.csv_path.as_deref(),
    );

    let mut checks = ShapeChecks::new();
    for &k in &opts.k_values {
        let x = k as f64;
        let ft_apl = series[0].at(x).unwrap();
        let rg_apl = series[1].at(x).unwrap();
        let best_flat = series[2..]
            .iter()
            .filter_map(|s| s.at(x))
            .fold(f64::INFINITY, f64::min);
        if k >= 8 {
            checks.check(
                &format!("k={k}: flat-tree beats fat-tree"),
                best_flat < ft_apl,
                format!("flat {best_flat:.3} vs fat {ft_apl:.3}"),
            );
            checks.check(
                &format!("k={k}: flat-tree within 10% of random graph"),
                rel_diff(best_flat, rg_apl) <= 0.10,
                format!(
                    "flat {best_flat:.3} vs rg {rg_apl:.3} ({:.1}%)",
                    100.0 * rel_diff(best_flat, rg_apl)
                ),
            );
            // the paper's profiled choice stays near the sweep's best
            if let Some(paper_pt) = series[3].at(x) {
                checks.check(
                    &format!("k={k}: (m=k/8, n=2k/8) near-optimal"),
                    paper_pt <= best_flat * 1.05,
                    format!("paper point {paper_pt:.3} vs best {best_flat:.3}"),
                );
            }
        }
    }
    checks.finish();
}
