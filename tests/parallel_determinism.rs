//! End-to-end determinism of the parallel hot paths (DESIGN.md §10): the
//! `u16` bitset-kernel distance matrix and the FPTAS throughput solve must
//! be bit-identical for every `FT_THREADS` value. One test function, because
//! `FT_THREADS` is process-global state: running the two thread counts
//! sequentially inside a single test keeps the env mutation race-free
//! under the default parallel test runner.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::graph::{Csr, DistMatrix};
use flat_tree::mcf::{aggregate_commodities, max_concurrent_flow, CapGraph, FptasOptions};
use flat_tree::workload::{generate, Locality, WorkloadSpec};

/// λ and the compact `u16` matrix (plus checksum) for the k = 8 flat-tree
/// in global random-graph mode under the current `FT_THREADS` setting.
fn solve_k8() -> (f64, Vec<u16>, u64) {
    let net = FlatTree::new(FlatTreeConfig::for_fat_tree_k(8).unwrap())
        .unwrap()
        .materialize(&Mode::GlobalRandom)
        .unwrap();
    let sg = net.switch_graph();
    let csr = Csr::from_graph(&sg);
    let dm = DistMatrix::compute_csr(&csr).unwrap();
    let mut compact = Vec::new();
    for v in 0..csr.node_count() {
        compact.extend_from_slice(dm.row(v));
    }
    let checksum = dm.checksum();

    let tm = generate(&net, &WorkloadSpec::hotspot(Locality::None), 1);
    let commodities = aggregate_commodities(tm.switch_triples(&net));
    let cg = CapGraph::from_graph(&sg, 1.0);
    let sol = max_concurrent_flow(
        &cg,
        &commodities,
        FptasOptions {
            epsilon: 0.15,
            max_steps: Some(50_000),
        },
    )
    .unwrap();
    assert!(
        !sol.budget_exhausted,
        "k=8 must converge inside the generous test budget"
    );
    (sol.lambda, compact, checksum)
}

#[test]
fn lambda_and_apsp_identical_across_thread_counts() {
    std::env::set_var("FT_THREADS", "1");
    let (lambda_1, compact_1, sum_1) = solve_k8();
    std::env::set_var("FT_THREADS", "4");
    let (lambda_4, compact_4, sum_4) = solve_k8();
    std::env::remove_var("FT_THREADS");

    assert_eq!(
        lambda_1.to_bits(),
        lambda_4.to_bits(),
        "FPTAS λ must be bit-identical: {lambda_1} (1 thread) vs {lambda_4} (4 threads)"
    );
    assert!(lambda_1.is_finite() && lambda_1 > 0.0, "λ = {lambda_1}");
    assert_eq!(
        compact_1, compact_4,
        "bitset-kernel matrix diverged across thread counts"
    );
    assert_eq!(sum_1, sum_4, "checksum diverged across thread counts");
}
