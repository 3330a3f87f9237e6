//! Flow-solver benchmarks backing Figures 7 and 8: the exact simplex LP on
//! small instances and the Garg–Könemann FPTAS on realistic ones.
//!
//! One fig7/fig8 sweep point is one `fptas` solve below; the harness runs
//! dozens, so FPTAS cost dominates the throughput experiments end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_mcf::{
    aggregate_commodities, max_concurrent_flow, max_concurrent_flow_exact, CapGraph, Commodity,
    FptasOptions,
};
use ft_metrics::throughput::{throughput_all_to_all, SolverKind, ThroughputOptions};
use ft_topo::{fat_tree, Network};
use ft_workload::{generate, Locality, TrafficPattern, WorkloadSpec};
use std::hint::black_box;

fn commodities(net: &Network, pattern: TrafficPattern, cluster: usize) -> Vec<Commodity> {
    let spec = WorkloadSpec {
        pattern,
        cluster_size: cluster,
        locality: Locality::Strong,
    };
    let tm = generate(net, &spec, 7);
    aggregate_commodities(tm.switch_triples(net))
}

fn bench_exact_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("exact-lp");
    g.sample_size(10);
    let net = fat_tree(4).unwrap();
    let cg = CapGraph::from_graph(&net.switch_graph(), 1.0);
    let cs = commodities(&net, TrafficPattern::AllToAll, 8);
    g.bench_function("fat-tree-k4-all-to-all", |b| {
        b.iter(|| black_box(max_concurrent_flow_exact(&cg, &cs)))
    });
    g.finish();
}

fn bench_fptas(c: &mut Criterion) {
    let mut g = c.benchmark_group("fptas");
    g.sample_size(10);
    for k in [6usize, 8] {
        // Figure 7 point: hot-spot workload on flat-tree global mode
        let flat = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
            .unwrap()
            .materialize(&Mode::GlobalRandom)
            .unwrap();
        let cg = CapGraph::from_graph(&flat.switch_graph(), 1.0);
        let cs = commodities(&flat, TrafficPattern::HotSpot, 1000);
        g.bench_with_input(
            BenchmarkId::new("fig7-hotspot-flat-tree", k),
            &(&cg, &cs),
            |b, (cg, cs)| {
                b.iter(|| black_box(max_concurrent_flow(cg, cs, FptasOptions::with_epsilon(0.2))))
            },
        );
        // Figure 8 point: all-to-all on flat-tree local mode
        let local = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
            .unwrap()
            .materialize(&Mode::LocalRandom)
            .unwrap();
        let cg2 = CapGraph::from_graph(&local.switch_graph(), 1.0);
        let cs2 = commodities(&local, TrafficPattern::AllToAll, 20);
        g.bench_with_input(
            BenchmarkId::new("fig8-all-to-all-flat-tree", k),
            &(&cg2, &cs2),
            |b, (cg, cs)| {
                b.iter(|| black_box(max_concurrent_flow(cg, cs, FptasOptions::with_epsilon(0.2))))
            },
        );
    }
    g.finish();
}

/// The fig7 hot-spot point through the batched FPTAS, and — on the
/// symmetric Clos layout — the orbit-aggregated all-to-all solve end to
/// end (distance table, symmetry classes and the quotient FPTAS).
fn bench_fptas_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("fptas-engines");
    g.sample_size(10);
    let k = 8usize;
    let flat = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
        .unwrap()
        .materialize(&Mode::GlobalRandom)
        .unwrap();
    let cg = CapGraph::from_graph(&flat.switch_graph(), 1.0);
    let cs = commodities(&flat, TrafficPattern::HotSpot, 1000);
    let opts = FptasOptions::with_epsilon(0.2);
    g.bench_with_input(BenchmarkId::new("batched", k), &(), |b, ()| {
        b.iter(|| black_box(max_concurrent_flow(&cg, &cs, opts)))
    });
    let clos = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap())
        .unwrap()
        .materialize(&Mode::Clos)
        .unwrap();
    g.bench_with_input(
        BenchmarkId::new("aggregated-all-to-all", k),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(throughput_all_to_all(
                    &clos,
                    ThroughputOptions::fptas_with(0.2, SolverKind::Aggregated),
                ))
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_exact_lp, bench_fptas, bench_fptas_engines);
criterion_main!(benches);
