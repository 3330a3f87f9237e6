//! Consistency between the flow-level simulator and the LP-optimal
//! throughput: no routed, fairly-shared schedule can beat the maximum
//! concurrent flow.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::metrics::throughput::{throughput, ThroughputOptions};
use flat_tree::sim::{flows_from_matrix, DesSimulator, FlowSpec, RouterPolicy};
use flat_tree::topo::fat_tree;
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

/// The max concurrent flow λ* maximizes the minimum per-flow rate over all
/// routings, so the simulator's *slowest* flow can never sustain more than
/// λ* — its completion time for a size-S transfer is at least S/λ*.
#[test]
fn slowest_simulated_flow_bounded_by_lp() {
    for (net, policy) in [
        (fat_tree(6).unwrap(), RouterPolicy::Ecmp),
        (
            FlatTree::new(FlatTreeConfig::for_fat_tree_k(6).unwrap())
                .unwrap()
                .materialize(&Mode::GlobalRandom)
                .unwrap(),
            RouterPolicy::Ksp(8),
        ),
    ] {
        let spec = WorkloadSpec {
            pattern: TrafficPattern::HotSpot,
            cluster_size: 27,
            locality: Locality::Strong,
        };
        let tm = generate(&net, &spec, 3);
        // LP optimum (upper bound on any min-rate)
        let lambda = throughput(&net, &tm, ThroughputOptions::fptas(0.05))
            .unwrap()
            .lambda;
        // simulate the same demands as unit-size flows
        let flows = flows_from_matrix(&tm, 1.0, 0.0);
        let report = DesSimulator::new(&net, policy)
            .run(&flows, &[], 1e9)
            .unwrap();
        assert_eq!(report.unfinished(), 0);
        // makespan ≥ size / λ*  (the slowest flow can't beat the optimum;
        // λ from the FPTAS is a lower bound on λ*, so divide by the upper
        // bound λ/(1−3ε) for a safe comparison)
        let lambda_upper = lambda / (1.0 - 3.0 * 0.05);
        let min_time = 1.0 / lambda_upper;
        assert!(
            report.makespan >= min_time * 0.99,
            "{}: makespan {} beats the LP bound {}",
            net.name(),
            report.makespan,
            min_time
        );
    }
}

/// On an idle network a single flow gets the full path rate: FCT == size.
#[test]
fn single_flow_saturates_path() {
    let net = fat_tree(6).unwrap();
    let servers: Vec<_> = net.servers().collect();
    let flows = [FlowSpec {
        src: servers[0],
        dst: servers[servers.len() - 1],
        size: 7.5,
        start: 0.0,
    }];
    let report = DesSimulator::new(&net, RouterPolicy::Ecmp)
        .run(&flows, &[], 1e9)
        .unwrap();
    assert_eq!(report.flows[0].completion, Some(7.5));
}

/// Convertibility pays off in the simulator too, not just in the LP: the
/// hot-spot workload's *mean* flow completion time improves on the global
/// random graph. (Makespan is tail-dominated by whichever hashed path the
/// slowest flow draws, so the mean is the stable metric here.)
#[test]
fn conversion_speeds_up_hotspot_workload() {
    let k = 8;
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
    let spec = WorkloadSpec {
        pattern: TrafficPattern::HotSpot,
        cluster_size: 1000,
        locality: Locality::Strong,
    };
    let mut mean_fcts = Vec::new();
    for (mode, policy) in [
        (Mode::Clos, RouterPolicy::Ecmp),
        (Mode::GlobalRandom, RouterPolicy::Ksp(8)),
    ] {
        let net = ft.materialize(&mode).unwrap();
        let tm = generate(&net, &spec, 6);
        let flows = flows_from_matrix(&tm, 1.0, 0.0);
        let report = DesSimulator::new(&net, policy)
            .run(&flows, &[], 1e9)
            .unwrap();
        assert_eq!(report.unfinished(), 0, "{mode:?}");
        mean_fcts.push(report.mean_fct(&flows));
    }
    assert!(
        mean_fcts[1] < mean_fcts[0],
        "global-RG mean FCT {} should beat Clos {}",
        mean_fcts[1],
        mean_fcts[0]
    );
}
