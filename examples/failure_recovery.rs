//! Failure injection on a converted topology with the flow-level
//! simulator.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```
//!
//! The paper's conclusion points at "self-recovery of the topology from
//! failures" as a use of convertibility. This example exercises the
//! machinery underneath: long-lived flows cross a flat-tree in global
//! random-graph mode while core links fail and recover; the simulator
//! re-routes affected flows (k-shortest-paths routing, as the mode
//! prescribes) and reports completion times and re-route counts.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::sim::{DesSimulator, FlowSpec, RouterPolicy, TopoEvent};
use flat_tree::topo::DeviceKind;

fn main() {
    let k = 8;
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
    let net = ft.materialize(&Mode::GlobalRandom).unwrap();
    println!(
        "flat-tree k={k} in {} mode: {} switches, {} links",
        Mode::GlobalRandom.label(),
        net.num_switches(),
        net.graph().edge_count()
    );

    // Long-lived inter-Pod flows.
    let servers: Vec<_> = net.servers().collect();
    let flows: Vec<FlowSpec> = (0..32)
        .map(|i| FlowSpec {
            src: servers[i * 3 % servers.len()],
            dst: servers[(i * 7 + servers.len() / 2) % servers.len()],
            size: 20.0,
            start: 0.0,
        })
        .collect();

    // Fail 10% of core-adjacent links at t = 2, repair at t = 12.
    let core_links: Vec<_> = net
        .graph()
        .edges()
        .filter(|&(_, a, b)| net.kind(a) == DeviceKind::Core || net.kind(b) == DeviceKind::Core)
        .map(|(e, _, _)| e)
        .collect();
    let victims = &core_links[..core_links.len() / 10];
    let mut events = Vec::new();
    for &e in victims {
        events.push(TopoEvent::LinkDown(2.0, e));
        events.push(TopoEvent::LinkUp(12.0, e));
    }
    println!(
        "injecting {} link failures at t=2.0, repairing at t=12.0\n",
        victims.len()
    );

    // Baseline run without failures, then the failure run.
    let sim = DesSimulator::new(&net, RouterPolicy::Ksp(8));
    let clean = sim.run(&flows, &[], 1e9).unwrap();
    let faulty = sim.run(&flows, &events, 1e9).unwrap();

    println!("{:<22} {:>12} {:>12}", "", "no failures", "with failures");
    println!(
        "{:<22} {:>12.3} {:>12.3}",
        "mean FCT",
        clean.mean_fct(&flows),
        faulty.mean_fct(&flows)
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "unfinished flows",
        clean.unfinished(),
        faulty.unfinished()
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "makespan",
        format!("{:.3}", clean.makespan),
        format!("{:.3}", faulty.makespan)
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "total re-routes", clean.reroutes, faulty.reroutes
    );

    assert_eq!(
        faulty.unfinished(),
        0,
        "all flows must survive the failures"
    );
    println!("\nall flows completed despite failures — re-routing absorbed the loss ✓");
}
