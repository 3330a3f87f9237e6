//! Cross-crate coverage for the symmetry-aggregated FPTAS: the orbit
//! quotient against the full commodity list across all four operating
//! modes, the singleton degradation on asymmetric layouts, and the des
//! solver stopwatch the storm bench relies on.
//!
//! Certification contract used throughout: every solve returns a λ that
//! is primal feasible (a true lower bound) and, at convergence, within
//! `(1 − 3ε)` of optimal — so the quotient and the full instance must
//! land within a `(1 − 3ε)` sandwich of each other.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::metrics::throughput::{throughput_all_to_all, SolverKind, ThroughputOptions};
use flat_tree::sim::{flows_with_arrivals, DesSimulator, RouterPolicy};
use flat_tree::topo::Network;
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

const EPS: f64 = 0.15;

/// Both λ are certified lower bounds within (1 − 3ε) of one optimum.
fn assert_band(a: f64, b: f64, what: &str) {
    let floor = 1.0 - 3.0 * EPS;
    assert!(a > 0.0 && b > 0.0, "{what}: λ must be positive ({a}, {b})");
    let ratio = a / b;
    assert!(
        (floor..=1.0 / floor).contains(&ratio),
        "{what}: λ {a} vs {b} outside the (1 − 3ε) sandwich (ratio {ratio})"
    );
}

fn mode_net(k: usize, mode: &Mode) -> Network {
    FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
        .unwrap()
        .materialize(mode)
        .unwrap()
}

/// Uniform all-to-all through every operating mode, aggregated quotient vs
/// the full commodity list. On the Clos layout the symmetry quotient must
/// actually engage (a real orbit collapse); on the asymmetric random
/// layouts it degrades to singleton classes and falls back to the
/// identical full solve — either way the λs must sit in one certified
/// band.
#[test]
fn aggregated_matches_full_across_modes() {
    for k in [4usize, 8] {
        let modes = [
            Mode::Clos,
            Mode::LocalRandom,
            Mode::GlobalRandom,
            Mode::two_zone(k, k / 2),
        ];
        for mode in &modes {
            let net = mode_net(k, mode);
            let agg = throughput_all_to_all(
                &net,
                ThroughputOptions::fptas_with(EPS, SolverKind::Aggregated),
            )
            .unwrap();
            let full = throughput_all_to_all(
                &net,
                ThroughputOptions::fptas_with(EPS, SolverKind::Batched),
            )
            .unwrap();
            assert_eq!(agg.commodities, full.commodities, "k={k} {mode:?}");
            if *mode == Mode::Clos {
                let reps = agg
                    .aggregated
                    .expect("symmetry aggregation must engage on the Clos fat-tree");
                assert!(
                    reps < agg.commodities,
                    "k={k}: {reps} orbits is no collapse of {} commodities",
                    agg.commodities
                );
            }
            match agg.aggregated {
                Some(_) => assert_band(
                    agg.lambda,
                    full.lambda,
                    &format!("aggregated vs batched k={k} {mode:?}"),
                ),
                // Identity degradation: the very same full solve ran,
                // so the bits must match, not just the band.
                None => assert_eq!(
                    agg.lambda.to_bits(),
                    full.lambda.to_bits(),
                    "k={k} {mode:?}: identity fallback must be bit-identical"
                ),
            }
        }
    }
}

/// The k = 16 tier of the mode sweep needs an optimized build (the full
/// all-to-all commodity list is 16 k pairs); debug runs cover k ∈ {4, 8}.
#[cfg(not(debug_assertions))]
#[test]
fn aggregated_matches_full_at_k16_clos() {
    let net = mode_net(16, &Mode::Clos);
    let agg = throughput_all_to_all(
        &net,
        ThroughputOptions::fptas_with(EPS, SolverKind::Aggregated),
    )
    .unwrap();
    let full = throughput_all_to_all(
        &net,
        ThroughputOptions::fptas_with(EPS, SolverKind::Batched),
    )
    .unwrap();
    let reps = agg.aggregated.expect("aggregation must engage at k=16");
    assert!(reps < agg.commodities);
    assert_band(agg.lambda, full.lambda, "aggregated vs batched k=16 clos");
}

/// A converted (zone-hybrid) layout breaks the fabric's symmetry: the
/// aggregation must refuse to merge anything rather than produce a wrong
/// quotient, and the fallback must be the byte-for-byte full answer.
#[test]
fn converted_layout_degrades_to_singleton_fallback() {
    let net = mode_net(4, &Mode::two_zone(4, 2));
    let agg = throughput_all_to_all(
        &net,
        ThroughputOptions::fptas_with(EPS, SolverKind::Aggregated),
    )
    .unwrap();
    let full = throughput_all_to_all(
        &net,
        ThroughputOptions::fptas_with(EPS, SolverKind::Batched),
    )
    .unwrap();
    assert!(
        agg.aggregated.is_none(),
        "a half-converted layout has no verified orbits to merge"
    );
    assert_eq!(agg.lambda.to_bits(), full.lambda.to_bits());
}

/// The storm bench subtracts [`DesReport::solver_ns`] from the wall time
/// to report engine-only events/s. The stopwatch must actually tick on a
/// workload that re-allocates, and must stay out of the determinism
/// digest — two runs agree on the checksum even though their solver
/// times differ.
#[test]
fn des_solver_stopwatch_ticks_and_stays_out_of_checksum() {
    let net = mode_net(4, &Mode::Clos);
    let spec = WorkloadSpec {
        pattern: TrafficPattern::AllToAll,
        cluster_size: 8,
        locality: Locality::None,
    };
    let tm = generate(&net, &spec, 1);
    let flows = flows_with_arrivals(&tm, 1.0, 0.5, 2, 1);
    let sim = DesSimulator::new(&net, RouterPolicy::Ecmp);
    let a = sim.run(&flows, &[], f64::INFINITY).unwrap();
    let b = sim.run(&flows, &[], f64::INFINITY).unwrap();
    assert!(a.reallocations > 0);
    assert!(
        a.solver_ns > 0,
        "re-allocations ran, the solver stopwatch must have ticked"
    );
    assert_eq!(
        a.completion_checksum(),
        b.completion_checksum(),
        "wall-clock measurement must not leak into the determinism digest"
    );
}
