//! Correctness gate for the symmetry-deduplicated APSP (DESIGN.md §15):
//! on every k and operating mode where a full table is cheap, the deduped
//! table must agree with the full bitset-kernel matrix entry for entry —
//! through `get` and through the bench checksum. Clos mode additionally
//! pins the class count to the fat-tree prediction (k + 1: one edge class,
//! k/2 aggregation classes, k/2 core classes); randomized modes are
//! allowed to degrade all the way to singleton classes but never to an
//! inexact answer.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode, PodMode};
use flat_tree::graph::{Csr, DistMatrix};
use flat_tree::topo::{DedupedApsp, Network};

/// Zone layouts exercised per k: the three uniform modes plus a mixed
/// hybrid assignment (one `PodMode` per Pod, cycling through all three).
fn modes(pods: usize) -> Vec<Mode> {
    let cycle = [PodMode::Clos, PodMode::GlobalRandom, PodMode::LocalRandom];
    let hybrid: Vec<PodMode> = (0..pods).map(|p| cycle[p % cycle.len()]).collect();
    vec![
        Mode::Clos,
        Mode::GlobalRandom,
        Mode::LocalRandom,
        Mode::Hybrid(hybrid),
    ]
}

/// Full-table-vs-deduped agreement for one materialized network.
fn assert_dedup_exact(net: &Network, label: &str) {
    let csr = Csr::from_graph(&net.switch_graph());
    let full = DistMatrix::compute_csr(&csr).unwrap();
    let dd = DedupedApsp::compute(net).unwrap();

    let n = net.num_switches();
    assert!(dd.classes().class_count() <= n, "{label}: class count");
    for v in 0..n {
        for w in 0..n {
            assert_eq!(
                dd.get(v, w),
                full.get(v, w),
                "{label}: deduped distance diverged at pair ({v}, {w})"
            );
        }
    }

    assert_eq!(dd.expanded_checksum(), full.checksum(), "{label}: checksum");
}

#[test]
fn deduped_apsp_matches_full_across_modes() {
    for k in [4usize, 8] {
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
        for mode in modes(k) {
            let net = ft.materialize(&mode).unwrap();
            assert_dedup_exact(&net, &format!("k={k} {mode:?}"));
        }
    }
}

/// k = 16 is the largest full-vs-deduped sweep that stays cheap in debug
/// builds; uniform modes only (the hybrid case is covered at k ≤ 8).
#[test]
fn deduped_apsp_matches_full_k16() {
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(16).unwrap()).unwrap();
    for mode in [Mode::Clos, Mode::GlobalRandom] {
        let net = ft.materialize(&mode).unwrap();
        assert_dedup_exact(&net, &format!("k=16 {mode:?}"));
    }
}

/// Clos mode reproduces the fat-tree exactly, so the symmetry classes must
/// collapse to the predicted k + 1 (1 edge + k/2 aggregation + k/2 core).
#[test]
fn clos_mode_class_count_matches_fat_tree_prediction() {
    for k in [4usize, 8, 16] {
        let net = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
            .unwrap()
            .materialize(&Mode::Clos)
            .unwrap();
        let dd = DedupedApsp::compute(&net).unwrap();
        assert_eq!(
            dd.classes().class_count(),
            k + 1,
            "k={k}: Clos-mode classes"
        );
    }
}
