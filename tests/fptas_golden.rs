//! Golden values of the FPTAS on fixed instances: λ and the certified
//! upper bound as raw bits, plus the step and phase counts and the budget
//! flag. Any change to the Fleischer loop's arithmetic or schedule shows
//! up here as a bit difference, so a refactor of the solver that claims to
//! keep its behaviour must pass this file unchanged.
//!
//! The tests share one lock: the all-to-all case reads the process-wide
//! `ft_mcf_*_total` counters, and no other solve may run beside it.

use std::sync::Mutex;

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::mcf::{aggregate_commodities, max_concurrent_flow, CapGraph, FptasOptions};
use flat_tree::metrics::throughput::{throughput_all_to_all, SolverKind, ThroughputOptions};
use flat_tree::obs::registry::counter;
use flat_tree::topo::Network;
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

static SERIAL: Mutex<()> = Mutex::new(());

/// `(λ bits, upper-bound bits, steps, phases, budget_exhausted)`.
type Golden = (u64, u64, usize, usize, bool);

fn mode_net(k: usize, mode: &Mode) -> Network {
    FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
        .unwrap()
        .materialize(mode)
        .unwrap()
}

fn solve(net: &Network, spec: &WorkloadSpec, seed: u64, opts: FptasOptions) -> Golden {
    let tm = generate(net, spec, seed);
    let commodities = aggregate_commodities(tm.switch_triples(net));
    let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
    let sol = max_concurrent_flow(&cg, &commodities, opts).unwrap();
    (
        sol.lambda.to_bits(),
        sol.upper_bound.to_bits(),
        sol.steps,
        sol.phases,
        sol.budget_exhausted,
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
/// cap (the budget rescue arms half-way) and the tripping `--quick` cap.
#[test]
fn bench_hotspot_k8() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let net = mode_net(8, &Mode::GlobalRandom);
    let spec = WorkloadSpec::hotspot(Locality::None);
    let pinned = [
        (
            3_000,
            (
                0x3fab_e952_6d07_693b,
                0x3fac_3870_e1c3_870e,
                1511,
                130,
                false,
            ),
        ),
        (
            500,
            (0x3fab_7103_f8c7_4f8f, 0x3fac_3870_e1c3_870e, 255, 40, false),
        ),
    ];
    for (max_steps, want) in pinned {
        let opts = FptasOptions {
            epsilon: 0.15,
            max_steps: Some(max_steps),
        };
        check(
            &format!("bench k=8 max_steps={max_steps}"),
            solve(&net, &spec, 1, opts),
            want,
        );
    }
}

/// The first Fig. 7 placement of the benchmark's seed 1 (one hot spot per
/// 1000-server cluster, no locality), on the k = 8 flat-tree in each mode:
/// unbudgeted, under a budget of 16 trees that trips, and under one of 60
/// that the budget rescue's gap test stops first.
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
            [
                (
                    None,
                    (
                        0x3fa0_7495_9ddf_f0d2,
                        0x3fa0_8421_0842_1084,
                        2033,
                        273,
                        false,
                    ),
                ),
                (
                    Some(16),
                    (0x3f9e_1e1e_1e1e_1e22, 0x3fa0_8421_0842_1084, 16, 2, true),
                ),
                (
                    Some(60),
                    (0x3f9e_1e1e_1e1e_1e22, 0x3fa0_8421_0842_1084, 36, 6, false),
                ),
            ],
        ),
        (
            Mode::LocalRandom,
            [
                (
                    None,
                    (
                        0x3fa8_3d01_16e0_6775,
                        0x3fa8_6186_1861_8618,
                        3038,
                        269,
                        false,
                    ),
                ),
                (
                    Some(16),
                    (0x3f9c_71c7_1c71_c717, 0x3fa8_6186_1861_8618, 16, 3, true),
                ),
                (
                    Some(60),
                    (0x3fa6_42c8_590b_216e, 0x3fa8_6186_1861_8618, 46, 10, false),
                ),
            ],
        ),
        (
            Mode::GlobalRandom,
            [
                (
                    None,
                    (
                        0x3fab_f8a3_9f0c_0ab8,
                        0x3fac_3870_e1c3_870e,
                        3458,
                        268,
                        false,
                    ),
                ),
                (
                    Some(16),
                    (0x3fa4_e5e0_a72f_053d, 0x3fac_3870_e1c3_870e, 16, 3, true),
                ),
                (
                    Some(60),
                    (0x3fa8_e38e_38e3_8e43, 0x3fac_3870_e1c3_870e, 40, 9, false),
                ),
            ],
        ),
    ];
    for (mode, pinned) in cases {
        let net = mode_net(8, &mode);
        for (max_steps, want) in pinned {
            let opts = FptasOptions {
                epsilon: 0.15,
                max_steps,
            };
            check(
                &format!("fig7 k=8 {} max_steps={max_steps:?}", mode.label()),
                solve(&net, &spec, 1000, opts),
                want,
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
    );
    (golden, pushes.get() - before.2, r.commodities, r.aggregated)
}

#[test]
fn aggregated_all_to_all_clos_k8() {
    let (golden, pushes, commodities, orbits) = aggregated_all_to_all(8);
    let want = (
        0x3f80_63b0_e5b9_0644,
        0x3f80_8421_0842_1084,
        363,
        122,
        false,
    );
    check("all-to-all k=8 clos", golden, want);
    assert_eq!((pushes, commodities, orbits), (615, 992, Some(2)));
}

/// The k = 16 tier needs an optimized build, like the other k = 16 tests.
#[cfg(not(debug_assertions))]
#[test]
fn aggregated_all_to_all_clos_k16() {
    let (golden, pushes, commodities, orbits) = aggregated_all_to_all(16);
    let want = (
        0x3f50_0779_cbb0_07e8,
        0x3f50_2040_8102_0408,
        752,
        150,
        false,
    );
    check("all-to-all k=16 clos", golden, want);
    assert_eq!((pushes, commodities, orbits), (1356, 16256, Some(2)));
}
