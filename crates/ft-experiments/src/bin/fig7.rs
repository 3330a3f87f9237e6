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

use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_experiments::{parallel_points, print_figure, rel_diff, GapReport, ShapeChecks, SweepOpts};
use ft_metrics::throughput::{throughput, ThroughputOptions};
use ft_metrics::{Series, Table};
use ft_topo::{fat_tree, jellyfish_matching_fat_tree, Network};
use ft_workload::{generate, Locality, TrafficPattern, WorkloadSpec};

#[derive(Clone, Copy, PartialEq)]
enum Topo {
    FatTree,
    FlatTree,
    RandomGraph,
}

fn build(topo: Topo, k: usize, seed: u64) -> Network {
    match topo {
        Topo::FatTree => fat_tree(k).unwrap(),
        Topo::FlatTree => FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
            .unwrap()
            .materialize(&Mode::GlobalRandom)
            .unwrap(),
        Topo::RandomGraph => jellyfish_matching_fat_tree(k, seed).unwrap(),
    }
}

fn main() {
    let opts = SweepOpts::from_args(12);
    let combos = [
        (Topo::FatTree, Locality::Strong, "Fat-tree locality"),
        (Topo::FatTree, Locality::None, "Fat-tree no locality"),
        (Topo::FlatTree, Locality::Strong, "Flat-tree locality"),
        (Topo::FlatTree, Locality::None, "Flat-tree no locality"),
        (Topo::RandomGraph, Locality::Strong, "Random graph locality"),
        (
            Topo::RandomGraph,
            Locality::None,
            "Random graph no locality",
        ),
    ];
    let mut points = Vec::new();
    for &k in &opts.k_values {
        for (i, _) in combos.iter().enumerate() {
            for rep in 0..opts.reps {
                points.push((k, i, rep));
            }
        }
    }
    let results = parallel_points(points.clone(), |&(k, ci, rep)| {
        let (topo, locality, name) = combos[ci];
        let seed = opts.seed + rep as u64;
        let net = build(topo, k, seed);
        let spec = WorkloadSpec {
            pattern: TrafficPattern::HotSpot,
            cluster_size: 1000,
            locality,
        };
        let tm = generate(&net, &spec, seed);
        let r = throughput(
            &net,
            &tm,
            ThroughputOptions {
                epsilon: opts.epsilon,
                exact_threshold: 0,
                max_steps: opts.max_steps,
                ..Default::default()
            },
        )
        .unwrap();
        if r.budget_exhausted {
            eprintln!(
                "{}",
                ft_metrics::budget_warning(
                    &format!("fig7 {name} k={k} seed={seed}"),
                    r.lambda,
                    opts.max_steps.unwrap_or(0),
                )
            );
        }
        // normalize to the nominal 1000-server cluster (see module docs)
        let actual = spec.cluster_size.min(net.num_servers());
        (r.lambda * (actual as f64 - 1.0) / 999.0, r)
    });

    // average repetitions per (k, curve)
    let mut acc: std::collections::HashMap<(usize, usize), (f64, usize)> =
        std::collections::HashMap::new();
    let mut gaps = GapReport::default();
    for ((k, ci, _), (v, r)) in points.iter().zip(&results) {
        gaps.add(r);
        let e = acc.entry((*k, *ci)).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }
    let mut series: Vec<Series> = combos
        .iter()
        .map(|(_, _, name)| Series::new(*name))
        .collect();
    for &k in &opts.k_values {
        for ci in 0..combos.len() {
            let (sum, cnt) = acc[&(k, ci)];
            series[ci].push(k as f64, sum / cnt as f64);
        }
    }
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
