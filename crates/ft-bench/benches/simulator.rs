//! Flow-level simulator benchmarks: rate allocation and full event-loop
//! runs — the hot paths of the `ft-sim` extension crate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_sim::{flows_from_matrix, DesSimulator, RouterPolicy};
use ft_workload::{generate, Locality, TrafficPattern, WorkloadSpec};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow-simulation");
    g.sample_size(10);
    for k in [4usize, 8] {
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
        for (mode, policy, label) in [
            (Mode::Clos, RouterPolicy::Ecmp, "clos-ecmp"),
            (Mode::GlobalRandom, RouterPolicy::Ksp(8), "global-ksp8"),
        ] {
            let net = ft.materialize(&mode).unwrap();
            let tm = generate(
                &net,
                &WorkloadSpec {
                    pattern: TrafficPattern::HotSpot,
                    cluster_size: 64,
                    locality: Locality::Strong,
                },
                1,
            );
            let flows = flows_from_matrix(&tm, 2.0, 0.0);
            g.bench_with_input(
                BenchmarkId::new(label, k),
                &(&net, &flows),
                |b, (net, flows)| {
                    let sim = DesSimulator::new(net, policy);
                    b.iter(|| black_box(sim.run(flows, &[], 1e9)))
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
