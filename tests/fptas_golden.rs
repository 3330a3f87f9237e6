//! Golden values of the FPTAS on fixed instances: λ and the certified
//! upper bound as raw bits, plus the step and phase counts, the budget
//! flag and the stop reason. Any change to the Fleischer loop's arithmetic or schedule shows
//! up here as a bit difference, so a refactor of the solver that claims to
//! keep its behaviour must pass this file unchanged.
//!
//! The tests share one lock: the all-to-all case reads the process-wide
//! `ft_mcf_*_total` counters, and no other solve may run beside it.

use std::sync::Mutex;

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::mcf::{
    aggregate_commodities, max_concurrent_flow, max_concurrent_flow_reference, CapGraph, Commodity,
    FptasOptions, McfError, McfSolution, Stop,
};
use flat_tree::metrics::throughput::{throughput_all_to_all, SolverKind, ThroughputOptions};
use flat_tree::obs::registry::counter;
use flat_tree::topo::{fat_tree, jellyfish_matching_fat_tree, Network};
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

static SERIAL: Mutex<()> = Mutex::new(());

/// `(λ bits, upper-bound bits, steps, phases, budget_exhausted, stop)`.
type Golden = (u64, u64, usize, usize, bool, Stop);

fn mode_net(k: usize, mode: &Mode) -> Network {
    FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
        .unwrap()
        .materialize(mode)
        .unwrap()
}

/// A full-instance FPTAS entry point.
type Solver = fn(&CapGraph, &[Commodity], FptasOptions) -> Result<McfSolution, McfError>;

fn solve(
    net: &Network,
    spec: &WorkloadSpec,
    seed: u64,
    opts: FptasOptions,
    solver: Solver,
) -> Golden {
    let tm = generate(net, spec, seed);
    let commodities = aggregate_commodities(tm.switch_triples(net));
    let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
    let sol = solver(&cg, &commodities, opts).unwrap();
    (
        sol.lambda.to_bits(),
        sol.upper_bound.to_bits(),
        sol.steps,
        sol.phases,
        sol.budget_exhausted,
        sol.stop,
    )
}

fn check(what: &str, got: Golden, want: Golden) {
    assert_eq!(
        got,
        want,
        "{what}: λ {} / upper bound {} drifted from the pinned {} / {}",
        f64::from_bits(got.0),
        f64::from_bits(got.1),
        f64::from_bits(want.0),
        f64::from_bits(want.1),
    );
}

/// The `ftctl bench` k = 8 instance: global random graph, hot-spot
/// workload without locality, seed 1, ε = 0.15 under the full-run step
/// cap (the gap rule stops first) and the `--quick` cap (which trips, with
/// λ already past (1 − 3ε)·UB).
#[test]
fn bench_hotspot_k8() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let net = mode_net(8, &Mode::GlobalRandom);
    let spec = WorkloadSpec::hotspot(Locality::None);
    let ub = 0x3fac_3870_e1c3_870e;
    let pinned = [
        (
            3_000,
            (0x3fac_0a8e_83f5_70d8, ub, 908, 87, false, Stop::Gap),
        ),
        (
            500,
            (0x3fab_c4fd_6588_3e87, ub, 500, 57, false, Stop::Budget),
        ),
    ];
    for (max_steps, want) in pinned {
        let opts = FptasOptions {
            epsilon: 0.15,
            max_steps: Some(max_steps),
        };
        check(
            &format!("bench k=8 max_steps={max_steps}"),
            solve(&net, &spec, 1, opts, max_concurrent_flow),
            want,
        );
    }
}

/// The first Fig. 7 placement of the benchmark's seed 1 (one hot spot per
/// 1000-server cluster, no locality), on the k = 8 flat-tree in each mode:
/// unbudgeted (the gap rule stops), and under budgets of 16 and 60 trees
/// that trip before the gap closes but after λ passed (1 − 3ε)·UB.
#[test]
fn fig7_hotspot_k8_each_mode() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let spec = WorkloadSpec {
        pattern: TrafficPattern::HotSpot,
        cluster_size: 1000,
        locality: Locality::None,
    };
    let cases = [
        (
            Mode::Clos,
            0x3fa0_8421_0842_1084,
            [
                (None, 0x3fa0_5b05_b05b_05b1, 160, 25, Stop::Gap),
                (Some(16), 0x3f9e_1e1e_1e1e_1e22, 16, 2, Stop::Budget),
                (Some(60), 0x3f9f_7047_dc11_f70b, 60, 10, Stop::Budget),
            ],
        ),
        (
            Mode::LocalRandom,
            0x3fa8_6186_1861_8618,
            [
                (None, 0x3fa8_26a4_39f6_56f6, 530, 67, Stop::Gap),
                (Some(16), 0x3fa0_8421_0842_1081, 16, 4, Stop::Budget),
                (Some(60), 0x3fa7_c57c_57c5_7c68, 60, 15, Stop::Budget),
            ],
        ),
        (
            Mode::GlobalRandom,
            0x3fac_3870_e1c3_870e,
            [
                (None, 0x3fab_f056_5b39_765b, 1570, 134, Stop::Gap),
                (Some(16), 0x3fa4_e5e0_a72f_053d, 16, 4, Stop::Budget),
                (Some(60), 0x3faa_f286_bca1_af33, 60, 14, Stop::Budget),
            ],
        ),
    ];
    for (mode, ub, pinned) in cases {
        let net = mode_net(8, &mode);
        for (max_steps, lambda, steps, phases, stop) in pinned {
            let opts = FptasOptions {
                epsilon: 0.15,
                max_steps,
            };
            check(
                &format!("fig7 k=8 {} max_steps={max_steps:?}", mode.label()),
                solve(&net, &spec, 1000, opts, max_concurrent_flow),
                (lambda, ub, steps, phases, false, stop),
            );
        }
    }
}

/// Symmetry-aggregated uniform all-to-all on the Clos layout. The
/// throughput result carries no step counts, so the trees and phases are
/// read from the solver's counters, summed over the adaptive-scaling runs.
fn aggregated_all_to_all(k: usize) -> (Golden, u64, usize, Option<usize>) {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let net = mode_net(k, &Mode::Clos);
    let opts = ThroughputOptions {
        max_steps: Some(3_000),
        ..ThroughputOptions::fptas_with(0.15, SolverKind::Aggregated)
    };
    let (trees, phases, pushes) = (
        counter("ft_mcf_trees_total"),
        counter("ft_mcf_phases_total"),
        counter("ft_mcf_pushes_total"),
    );
    let before = (trees.get(), phases.get(), pushes.get());
    let r = throughput_all_to_all(&net, opts).unwrap();
    let golden = (
        r.lambda.to_bits(),
        r.upper_bound.to_bits(),
        usize::try_from(trees.get() - before.0).unwrap(),
        usize::try_from(phases.get() - before.1).unwrap(),
        r.budget_exhausted,
        r.stop,
    );
    (golden, pushes.get() - before.2, r.commodities, r.aggregated)
}

#[test]
fn aggregated_all_to_all_clos_k8() {
    let (golden, pushes, commodities, orbits) = aggregated_all_to_all(8);
    let want = (
        0x3f80_5e48_053c_e3d6,
        0x3f80_8421_0842_1084,
        77,
        27,
        false,
        Stop::Gap,
    );
    check("all-to-all k=8 clos", golden, want);
    assert_eq!((pushes, commodities, orbits), (135, 992, Some(2)));
}

/// The k = 16 tier needs an optimized build, like the other k = 16 tests.
#[cfg(not(debug_assertions))]
#[test]
fn aggregated_all_to_all_clos_k16() {
    let (golden, pushes, commodities, orbits) = aggregated_all_to_all(16);
    let want = (
        0x3f4f_f1ae_24b1_c1ee,
        0x3f50_2040_8102_0408,
        302,
        60,
        false,
        Stop::Gap,
    );
    check("all-to-all k=16 clos", golden, want);
    assert_eq!((pushes, commodities, orbits), (540, 16256, Some(2)));
}

/// The per-commodity reference loop on the paper's hot-spot workload,
/// seed 1, ε = 0.15, on the k = 4 and k = 6 fat-trees and the Jellyfish
/// with the k = 6 fat-tree's equipment. It has no gap rule, so unbudgeted
/// runs stop at `D(l) ≥ 1`; the last case trips a budget of 500 paths.
#[test]
fn reference_hotspot_small() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let opts = |max_steps| FptasOptions {
        epsilon: 0.15,
        max_steps,
    };
    // (λ bits, upper-bound bits, steps, phases) at strong and at no locality
    let unbudgeted = [
        (
            fat_tree(4).unwrap(),
            [
                (0x3fc2_2c8e_4401_903b, 0x3fc2_4924_9249_2492, 2614, 186),
                (0x3fc2_33ab_7315_233e, 0x3fc2_4924_9249_2492, 2614, 186),
            ],
        ),
        (
            fat_tree(6).unwrap(),
            [
                (0x3fae_0cee_e1f3_1077, 0x3fae_1e1e_1e1e_1e1e, 8067, 237),
                (0x3fae_0cee_e1f3_1077, 0x3fae_1e1e_1e1e_1e1e, 8067, 237),
            ],
        ),
        (
            jellyfish_matching_fat_tree(6, 1).unwrap(),
            [
                (0x3fb3_adeb_24aa_e487, 0x3fb3_b13b_13b1_3b14, 20593, 234),
                (0x3fb8_0b9b_ac41_8045, 0x3fb8_26a4_39f6_56f2, 20499, 232),
            ],
        ),
    ];
    for (net, pinned) in &unbudgeted {
        for (locality, (lambda, ub, steps, phases)) in
            [Locality::Strong, Locality::None].into_iter().zip(*pinned)
        {
            let spec = WorkloadSpec::hotspot(locality);
            check(
                &format!("reference {} {locality:?}", net.name()),
                solve(net, &spec, 1, opts(None), max_concurrent_flow_reference),
                (lambda, ub, steps, phases, false, Stop::Dual),
            );
        }
    }
    let jellyfish = &unbudgeted[2].0;
    let spec = WorkloadSpec::hotspot(Locality::None);
    check(
        "reference jellyfish k=6 max_steps=500",
        solve(
            jellyfish,
            &spec,
            1,
            opts(Some(500)),
            max_concurrent_flow_reference,
        ),
        (
            0x3fb3_64d9_364d_935f,
            0x3fb8_26a4_39f6_56f2,
            500,
            5,
            false,
            Stop::Budget,
        ),
    );
}
