//! Hot-path kernel benchmarks: the distance table (scalar u16 BFS vs the
//! multi-source bitset kernel vs symmetry-deduped APSP, DESIGN.md §15),
//! Dijkstra scratch reuse, and the CSR-ported filtered Dijkstra that
//! Yen's algorithm drives.
//!
//! These are the micro counterparts of `ftctl bench --json` (which produces
//! the checked-in `BENCH_hotpaths.json` baseline); run them for
//! statistically solid per-kernel numbers on a quiet machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_graph::{dijkstra_csr, Csr, DistMatrix};
use ft_mcf::{CapGraph, DijkstraScratch};
use ft_topo::{fat_tree, DedupedApsp};
use std::hint::black_box;

fn bench_dist_matrix(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist-matrix");
    g.sample_size(10);
    for k in [8usize, 16] {
        let net = fat_tree(k).unwrap();
        let sg = net.switch_graph();
        let csr = Csr::from_graph(&sg);
        // scalar reference: one u16 BFS row per source
        g.bench_with_input(BenchmarkId::new("scalar", k), &csr, |b, csr| {
            b.iter(|| black_box(DistMatrix::compute_scalar_csr(csr)))
        });
        // the multi-source bitset kernel (DESIGN.md §15.2)
        g.bench_with_input(BenchmarkId::new("bitset", k), &csr, |b, csr| {
            b.iter(|| black_box(DistMatrix::compute_csr_with_threads(csr, 1)))
        });
        // symmetry-deduped: k + 1 representative rows instead of 5k²/4
        g.bench_with_input(BenchmarkId::new("dedup", k), &net, |b, net| {
            b.iter(|| black_box(DedupedApsp::compute(net)))
        });
    }
    g.finish();
}

fn bench_dijkstra_scratch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dijkstra");
    g.sample_size(10);
    for k in [8usize, 16] {
        let net = fat_tree(k).unwrap();
        let sg = net.switch_graph();
        let cg = CapGraph::from_graph(&sg, 1.0);
        let ones = vec![1.0f64; cg.arc_count()];
        let n = cg.node_count();
        g.bench_with_input(BenchmarkId::new("alloc-64-calls", k), &cg, |b, cg| {
            b.iter(|| {
                for i in 0..64usize {
                    black_box(cg.shortest_path((i * 37) % n, (i * 97 + n / 2) % n, &ones));
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("scratch-64-calls", k), &cg, |b, cg| {
            let mut scratch = DijkstraScratch::new();
            b.iter(|| {
                for i in 0..64usize {
                    black_box(cg.shortest_path_with(
                        (i * 37) % n,
                        (i * 97 + n / 2) % n,
                        &ones,
                        &mut scratch,
                    ));
                }
            })
        });
        let csr = Csr::from_graph(&sg);
        let lengths = vec![1.0f64; sg.edge_count()];
        g.bench_with_input(BenchmarkId::new("csr-weighted", k), &csr, |b, csr| {
            b.iter(|| black_box(dijkstra_csr(csr, ft_graph::NodeId(0), &lengths)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dist_matrix, bench_dijkstra_scratch);
criterion_main!(benches);
