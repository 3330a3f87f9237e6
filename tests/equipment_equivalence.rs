//! Cross-crate invariant: every topology in the evaluation is built from
//! the *same equipment* (§3.1) — same switch count, same port budget, same
//! server count — and every flat-tree mode conserves it exactly.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode, PodMode, Topology};

const POD_MODES: [PodMode; 3] = [PodMode::Clos, PodMode::LocalRandom, PodMode::GlobalRandom];

#[test]
fn all_topologies_share_equipment() {
    for k in [4, 6, 8, 10, 12] {
        let reference = Topology::FatTree.build(k, 3).unwrap().equipment();
        for topology in [Topology::RandomGraph, Topology::TwoStage] {
            let eq = topology.build(k, 3).unwrap().equipment();
            assert_eq!(reference.switches, eq.switches, "{topology:?} k = {k}");
            assert_eq!(reference.servers, eq.servers, "{topology:?} k = {k}");
            assert_eq!(
                reference.total_switch_ports, eq.total_switch_ports,
                "{topology:?} k = {k}"
            );
        }
    }
}

#[test]
fn every_mode_conserves_equipment_and_validates() {
    for k in [4, 6, 8, 10] {
        let reference = Topology::FatTree.build(k, 0).unwrap().equipment();
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
        let hybrid = Mode::Hybrid((0..k).map(|p| POD_MODES[p % 3]).collect());
        for mode in [Mode::Clos, Mode::LocalRandom, Mode::GlobalRandom, hybrid] {
            let net = ft.materialize(&mode).unwrap();
            assert_eq!(net.equipment(), reference, "k = {k}, mode {mode:?}");
            net.validate()
                .unwrap_or_else(|e| panic!("k = {k}, {mode:?}: {e}"));
        }
    }
}

#[test]
fn clos_mode_is_fat_tree_for_every_k() {
    // k = 2 is excluded: the default (m, n) = (1, 1) needs m + n ≤ k/2 = 1
    for k in [4, 6, 8, 10, 12, 14] {
        let edges = |topology: Topology| topology.build(k, 0).unwrap().graph().canonical_edges();
        assert_eq!(
            edges(Topology::FlatTree(PodMode::Clos)),
            edges(Topology::FatTree),
            "k = {k}"
        );
    }
}

#[test]
fn full_port_utilization_in_all_modes() {
    let k = 8;
    for mode in POD_MODES {
        let net = Topology::FlatTree(mode).build(k, 0).unwrap();
        for sw in net.switches() {
            assert_eq!(net.graph().degree(sw), k, "{mode:?} wastes ports on {sw:?}");
        }
    }
}

#[test]
fn no_single_points_of_failure_in_any_switch_fabric() {
    // every evaluation topology's switch fabric is bridge-free: no single
    // link failure can partition the switches
    use flat_tree::graph::bridges::bridges;
    let k = 8;
    let family = [Topology::FatTree, Topology::RandomGraph, Topology::TwoStage]
        .into_iter()
        .chain(POD_MODES.map(Topology::FlatTree));
    for topology in family {
        let net = topology.build(k, 4).unwrap();
        let sg = net.switch_graph();
        assert!(
            bridges(&sg).is_empty(),
            "{} has a single point of failure in its switch fabric",
            net.name()
        );
    }
}
