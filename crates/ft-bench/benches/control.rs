//! Control-plane benchmarks: conversion planning, router construction and
//! ECMP path walks — what the centralized controller (§2.6) pays per
//! topology change and per flow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_control::{plan_transition, EcmpRoutes, KspRoutes};
use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_graph::NodeId;
use std::hint::black_box;

fn bench_planning(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconfig-plan");
    g.sample_size(10);
    for k in [8usize, 16] {
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
        let clos = ft.resolve(&Mode::Clos).unwrap();
        let global = ft.resolve(&Mode::GlobalRandom).unwrap();
        g.bench_with_input(
            BenchmarkId::new("clos-to-global", k),
            &(&ft, &clos, &global),
            |b, (ft, from, to)| b.iter(|| black_box(plan_transition(ft, from, to).unwrap())),
        );
    }
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    g.sample_size(10);
    for k in [8usize, 16] {
        let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
        let clos = ft.materialize(&Mode::Clos).unwrap();
        let global = ft.materialize(&Mode::GlobalRandom).unwrap();
        g.bench_with_input(BenchmarkId::new("ecmp-build", k), &clos, |b, net| {
            b.iter(|| black_box(EcmpRoutes::compute(net).unwrap()))
        });
        // Path walks on a warm router: every destination row is filled
        // once up front, so this measures the per-flow next-hop scan.
        let ecmp = EcmpRoutes::compute(&clos).unwrap();
        let s = clos.num_switches() as u32;
        for dst in 0..s {
            black_box(ecmp.distance(NodeId(0), NodeId(dst)));
        }
        g.bench_with_input(BenchmarkId::new("ecmp-path-walk-1k", k), &ecmp, |b, r| {
            b.iter(|| {
                for i in 0..1000u32 {
                    let (src, dst) = (i % s, (i * 7 + 1) % s);
                    black_box(r.path(NodeId(src), NodeId(dst), u64::from(i)));
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("ksp8-100-pairs", k), &global, |b, net| {
            b.iter(|| {
                let r = KspRoutes::new(net, 8);
                for i in 0..10u32 {
                    for j in 0..10u32 {
                        black_box(r.paths(NodeId(i), NodeId(net.num_switches() as u32 - 1 - j)));
                    }
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_planning, bench_routing);
criterion_main!(benches);
