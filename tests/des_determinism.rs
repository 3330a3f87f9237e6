//! End-to-end determinism of the ft-des simulation engine (DESIGN.md §14).
//!
//! The conversion scenario must be bit-identical — per-flow completion
//! bits, re-route counters, and the full JSONL trace — across
//! `FT_THREADS` settings (single test function: the env var is
//! process-global, so the two settings run sequentially inside it). On a
//! failure-free, conversion-free trace the engine must reproduce, within
//! 1e-9, the completion times recorded from the next-transition simulator
//! it replaced.

use flat_tree::control::plan_transition;
use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::sim::{
    flows_with_arrivals, ConversionEvent, DesReport, DesSimulator, FlowSpec, RouterPolicy,
    TopoEvent,
};
use flat_tree::topo::Network;
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

fn fixture() -> (Network, Vec<FlowSpec>, Vec<TopoEvent>) {
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(4).unwrap()).unwrap();
    let net = ft.materialize(&Mode::Clos).unwrap();
    let from = ft.resolve(&Mode::Clos).unwrap();
    let to = ft.resolve(&Mode::GlobalRandom).unwrap();
    let plan = plan_transition(&ft, &from, &to).unwrap();
    let topo = vec![TopoEvent::Convert(ConversionEvent::from_plan(
        1.0,
        0.5,
        &plan,
        Some(RouterPolicy::Ksp(8)),
    ))];
    let spec = WorkloadSpec {
        pattern: TrafficPattern::AllToAll,
        cluster_size: 8,
        locality: Locality::None,
    };
    let tm = generate(&net, &spec, 1);
    let flows = flows_with_arrivals(&tm, 8.0, 0.5, 2, 1);
    (net, flows, topo)
}

fn run_conversion() -> DesReport {
    let (net, flows, topo) = fixture();
    DesSimulator::new(&net, RouterPolicy::Ecmp)
        .run_traced(&flows, &topo, 1e9)
        .unwrap()
}

#[test]
fn conversion_scenario_bit_identical_across_thread_counts() {
    std::env::set_var("FT_THREADS", "1");
    let r1 = run_conversion();
    std::env::set_var("FT_THREADS", "4");
    let r4 = run_conversion();
    std::env::remove_var("FT_THREADS");

    assert!(r1.conversions == 1 && r1.conversion_reroutes > 0, "{r1:?}");
    assert_eq!(
        r1.completion_checksum(),
        r4.completion_checksum(),
        "completion digest diverged across thread counts"
    );
    for (a, b) in r1.flows.iter().zip(&r4.flows) {
        assert_eq!(
            a.completion.map(f64::to_bits),
            b.completion.map(f64::to_bits),
            "flow {} completion diverged",
            a.flow
        );
        assert_eq!(a.reroutes, b.reroutes, "flow {} reroutes diverged", a.flow);
        assert_eq!(a.parked_time.to_bits(), b.parked_time.to_bits());
    }
    assert_eq!(r1.makespan.to_bits(), r4.makespan.to_bits());
    assert_eq!(
        r1.trace, r4.trace,
        "JSONL trace diverged across thread counts"
    );
}

/// The next-transition simulator computed makespan 144.4502739383804 and
/// mean FCT 97.68451517086422 on this trace; the DES agreed with each of
/// its 224 completions to 1.5e-13. The checksum pins every DES completion
/// bit for bit.
#[test]
fn des_reproduces_legacy_on_event_free_trace() {
    let (net, flows, _) = fixture();
    let des = DesSimulator::new(&net, RouterPolicy::Ecmp)
        .run(&flows, &[], 1e9)
        .unwrap();
    assert_eq!(des.flows.len(), 224);
    assert_eq!(des.unfinished(), 0);
    let (makespan, mean_fct) = (des.makespan, des.mean_fct(&flows));
    assert!((makespan - 144.4502739383804).abs() < 1e-9, "{makespan}");
    assert!((mean_fct - 97.68451517086422).abs() < 1e-9, "{mean_fct}");
    assert_eq!(des.completion_checksum(), 0x50fc_be63_c57f_733e);
}

/// Two core–aggregation links fail mid-run and one comes back: every
/// flow still completes, the failures force re-routes, and the repair
/// strands nothing. The DES routes on the id-preserving
/// `Network::switch_view()`, so path edge ids stay network edge ids after
/// a failure.
#[test]
fn des_survives_link_failures_like_legacy() {
    let (net, flows, _) = fixture();
    let agg_core: Vec<_> = net
        .graph()
        .edges()
        .filter(|&(_, a, b)| {
            use flat_tree::topo::DeviceKind::*;
            matches!(
                (net.kind(a), net.kind(b)),
                (Core, Aggregation) | (Aggregation, Core)
            )
        })
        .map(|(e, _, _)| e)
        .take(2)
        .collect();
    let events = [
        TopoEvent::LinkDown(2.0, agg_core[0]),
        TopoEvent::LinkDown(3.0, agg_core[1]),
        TopoEvent::LinkUp(6.0, agg_core[0]),
    ];
    let des = DesSimulator::new(&net, RouterPolicy::Ecmp)
        .run(&flows, &events, 1e9)
        .unwrap();
    assert_eq!(des.flows.len(), flows.len());
    assert_eq!(des.unfinished(), 0, "a failure stranded a DES flow");
    assert!(des.reroutes > 0, "failures should have forced re-routes");
    assert!(des.makespan.is_finite() && des.makespan > 6.0);
}

#[test]
fn conversion_repeat_runs_identical() {
    let a = run_conversion();
    let b = run_conversion();
    assert_eq!(a.completion_checksum(), b.completion_checksum());
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.scheduled, b.scheduled);
}
