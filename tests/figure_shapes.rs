//! Miniature end-to-end versions of the paper's figures, run at small k so
//! they fit in the test suite. The full harness lives in
//! `crates/ft-experiments`; these tests pin the *shape* results the paper
//! reports so regressions in any crate of the pipeline fail loudly.

use flat_tree::core::{PodMode, Topology};
use flat_tree::metrics::path_length::{average_intra_pod_path_length, average_server_path_length};
use flat_tree::metrics::throughput::{throughput, ThroughputOptions};
use flat_tree::topo::Network;
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

fn build(topology: Topology, k: usize, seed: u64) -> Network {
    topology.build(k, seed).unwrap()
}

/// Figure 5 shape: flat-tree global mode sits between fat-tree and the
/// random graph, within 10% of the latter.
#[test]
fn fig5_shape_small_k() {
    for k in [8, 10] {
        let fat = average_server_path_length(&build(Topology::FatTree, k, 1));
        let rg = average_server_path_length(&build(Topology::RandomGraph, k, 1));
        let global = Topology::FlatTree(PodMode::GlobalRandom);
        let ft = average_server_path_length(&build(global, k, 1));
        assert!(ft < fat, "k = {k}: flat {ft} !< fat {fat}");
        assert!(
            ft >= rg * 0.98,
            "k = {k}: flat {ft} implausibly beats rg {rg}"
        );
        assert!(
            (ft - rg) / rg <= 0.10,
            "k = {k}: flat {ft} not within 10% of rg {rg}"
        );
    }
}

/// Figure 6 shape: in-Pod, flat-tree-local ≲ two-stage < fat-tree < rg.
#[test]
fn fig6_shape_small_k() {
    let k = 10;
    let pod = k * k / 4;
    let apl = |topology| average_intra_pod_path_length(&build(topology, k, 1), pod);
    let ftl = apl(Topology::FlatTree(PodMode::LocalRandom));
    let fat = apl(Topology::FatTree);
    let rg = apl(Topology::RandomGraph);
    let ts = apl(Topology::TwoStage);
    assert!(ftl < fat, "flat {ftl} !< fat {fat}");
    assert!(fat < rg, "fat {fat} !< rg {rg}");
    assert!(ftl <= ts * 1.02, "flat {ftl} not ≤ two-stage {ts} (+2%)");
}

/// Figure 7 shape: hot-spot throughput — flat-tree ≥ 1.2× fat-tree and
/// within 20% of the random graph.
#[test]
fn fig7_shape_small_k() {
    let k = 8;
    let spec = WorkloadSpec {
        pattern: TrafficPattern::HotSpot,
        cluster_size: 1000,
        locality: Locality::Strong,
    };
    let opts = ThroughputOptions::fptas(0.1);
    let lam = |topology| {
        let net = build(topology, k, 2);
        throughput(&net, &generate(&net, &spec, 2), opts)
            .unwrap()
            .lambda
    };
    let fat = lam(Topology::FatTree);
    let ftg = lam(Topology::FlatTree(PodMode::GlobalRandom));
    let rg = lam(Topology::RandomGraph);
    assert!(ftg >= 1.2 * fat, "flat {ftg} vs fat {fat}");
    assert!((ftg - rg).abs() / rg <= 0.2, "flat {ftg} vs rg {rg}");
}

/// Figure 8 shape: all-to-all throughput — flat-tree-local competitive
/// with the two-stage RG; fat-tree placement-sensitive.
#[test]
fn fig8_shape_small_k() {
    let k = 8;
    let opts = ThroughputOptions::fptas(0.1);
    let lam = |net: &Network, locality| {
        let spec = WorkloadSpec {
            pattern: TrafficPattern::AllToAll,
            cluster_size: 20,
            locality,
        };
        throughput(net, &generate(net, &spec, 2), opts)
            .unwrap()
            .lambda
    };
    let ftl = build(Topology::FlatTree(PodMode::LocalRandom), k, 2);
    let ts = build(Topology::TwoStage, k, 2);
    assert!(
        lam(&ftl, Locality::Strong) >= 0.95 * lam(&ts, Locality::Strong),
        "flat-tree-local must be competitive with two-stage RG at small k"
    );
    let fat = build(Topology::FatTree, k, 2);
    let fat_strong = lam(&fat, Locality::Strong);
    let fat_weak = lam(&fat, Locality::Weak);
    assert!(
        fat_strong >= fat_weak * 0.99,
        "fat-tree should not improve under fragmentation: {fat_strong} vs {fat_weak}"
    );
}

/// §3.2 shape: the profiling sweep finds (m = k/8, n = 2k/8) at or near
/// the optimum.
#[test]
fn profiling_recovers_paper_choice() {
    let r = flat_tree::core::profile_mn(8, 1).unwrap();
    let paper = r.points.iter().find(|p| p.m == 1 && p.n == 2).unwrap();
    assert!(paper.apl <= r.best.apl * 1.05);
}
