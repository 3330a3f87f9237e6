//! Figure 7: throughput of broadcast/incast traffic in 1000-server
//! clusters.
//!
//! One random hot spot per cluster exchanges unit demand with every other
//! member, in both directions. Flat-tree runs as the approximated global
//! random graph (the mode for large clusters). Localities: *locality*
//! (clusters packed contiguously) and *no locality* (random placement).
//!
//! Paper shape: flat-tree ≈ random graph ≈ 1.5 × fat-tree; throughput
//! grows ~linearly with k; no topology is locality-sensitive (traffic is
//! inherently cross-Pod).
//!
//! Cluster size is min(1000, total servers) — below k = 16 the whole data
//! center is one cluster. Reported throughput is normalized to a *nominal*
//! 1000-server cluster (`λ · (actual−1)/999`): the paper's y-axis divides
//! the hot spot's capacity among ~999 flows per direction at every k,
//! which is what makes its curves grow ~linearly with k (at k = 4 the
//! paper reports ≈ 0.002 = (2 uplinks)/999, matching this normalization).

use ft_core::{PodMode, Topology};
use ft_experiments::{print_figure, rel_diff, throughput_sweep, ShapeChecks, SweepOpts};
use ft_metrics::Table;
use ft_workload::{Locality, TrafficPattern};

fn main() {
    let opts = SweepOpts::from_args(12);
    let flat = Topology::FlatTree(PodMode::GlobalRandom);
    let curves = [
        ((Topology::FatTree, Locality::Strong), "Fat-tree locality"),
        ((Topology::FatTree, Locality::None), "Fat-tree no locality"),
        ((flat, Locality::Strong), "Flat-tree locality"),
        ((flat, Locality::None), "Flat-tree no locality"),
        (
            (Topology::RandomGraph, Locality::Strong),
            "Random graph locality",
        ),
        (
            (Topology::RandomGraph, Locality::None),
            "Random graph no locality",
        ),
    ];
    let (series, gaps) = throughput_sweep(&opts, &curves, TrafficPattern::HotSpot, 1000);
    let table = Table::from_series("k", &series);
    print_figure(
        "Figure 7: throughput of broadcast/incast traffic in 1000-server clusters",
        "paper shape: flat-tree ≈ random graph ≈ 1.5× fat-tree; ~linear growth in k; locality-insensitive",
        &table,
        opts.csv_path.as_deref(),
    );
    gaps.print();

    let at = |ci: usize, k: usize| series[ci].at(k as f64).unwrap();
    let mut checks = ShapeChecks::new();
    for &k in &opts.k_values {
        if k < 8 {
            continue; // trivially small fabrics
        }
        let (fat, flat, rg) = (at(0, k), at(2, k), at(4, k));
        checks.check(
            &format!("k={k}: flat-tree ≥ 1.2× fat-tree"),
            flat >= 1.2 * fat,
            format!("flat {flat:.4} vs fat {fat:.4} ({:.2}×)", flat / fat),
        );
        checks.check(
            &format!("k={k}: flat-tree within 20% of random graph"),
            rel_diff(flat, rg) <= 0.20,
            format!("flat {flat:.4} vs rg {rg:.4}"),
        );
        for (ci, name) in [(2usize, "flat-tree"), (4, "random graph")] {
            let loc = at(ci, k);
            let noloc = at(ci + 1, k);
            checks.check(
                &format!("k={k}: {name} locality-insensitive"),
                rel_diff(loc, noloc) <= 0.25,
                format!("locality {loc:.4} vs none {noloc:.4}"),
            );
        }
    }
    // growth with k
    if opts.k_values.len() >= 3 {
        let first = *opts.k_values.first().unwrap();
        let last = *opts.k_values.last().unwrap();
        for (ci, name) in [(2usize, "flat-tree"), (0, "fat-tree")] {
            checks.check(
                &format!("{name} throughput grows with k"),
                at(ci, last) > at(ci, first),
                format!(
                    "k={first}: {:.4} → k={last}: {:.4}",
                    at(ci, first),
                    at(ci, last)
                ),
            );
        }
    }
    checks.finish();
}
