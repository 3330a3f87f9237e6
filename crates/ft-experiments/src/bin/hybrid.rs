//! §3.4: hybrid flat-tree — zone isolation.
//!
//! The network is organized into two zones whose proportion sweeps from
//! 10% to 90%: one zone runs the approximated global random graph with
//! hot-spot traffic, the other runs approximated local random graphs with
//! all-to-all traffic (each zone gets the traffic pattern of the
//! corresponding complete network, §3.3).
//!
//! For every proportion the harness solves three concurrent-flow problems
//! on the hybrid topology — zone A alone, zone B alone, and both jointly —
//! and compares each zone against the *complete network* reference: the
//! same workload on the same servers with the whole network converted to
//! that zone's mode.
//!
//! Paper claim: "regardless of the proportion, each zone constantly
//! achieves the same throughput as that of the corresponding complete
//! network", i.e. hybrid mode segregates workloads perfectly.
//!
//! The paper uses k = 30; the default here is k = 10 so the harness runs
//! in minutes (`--kmax 30` reproduces the paper's scale).

use ft_core::{FlatTree, FlatTreeConfig, Mode, PodMode};
use ft_experiments::{parallel_points, print_figure, rel_diff, GapReport, ShapeChecks, SweepOpts};
use ft_mcf::{aggregate_commodities, Commodity};
use ft_metrics::throughput::{throughput_on_commodities, ThroughputOptions};
use ft_metrics::Table;
use ft_topo::Network;
use ft_workload::{generate_on, Locality, TrafficPattern, WorkloadSpec};

struct Row {
    proportion: usize,
    zone_a: f64,
    ref_a: f64,
    zone_b: f64,
    ref_b: f64,
    joint: f64,
    /// Certified gaps of the row's five solves.
    gaps: GapReport,
}

fn zone_servers(net: &Network, pods: std::ops::Range<usize>) -> Vec<ft_graph::NodeId> {
    net.servers()
        .filter(|&s| net.pod(s).is_some_and(|p| pods.contains(&(p as usize))))
        .collect()
}

fn commodities_for(
    net: &Network,
    servers: &[ft_graph::NodeId],
    spec: &WorkloadSpec,
    seed: u64,
) -> Vec<Commodity> {
    let tm = generate_on(net, servers, spec, seed);
    aggregate_commodities(tm.switch_triples(net))
}

fn main() {
    let opts = SweepOpts::from_args(10);
    let k = *opts.k_values.last().expect("need at least one k");
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
    let pods = ft.config().clos.pods;

    // Reference complete networks (whole fabric in one mode).
    let full_global = ft.materialize(&Mode::GlobalRandom).unwrap();
    let full_local = ft.materialize(&Mode::LocalRandom).unwrap();

    let topts = ThroughputOptions {
        epsilon: opts.epsilon,
        exact_threshold: 0,
        max_steps: opts.max_steps,
        ..Default::default()
    };

    let proportions: Vec<usize> = (1..=9).map(|p| p * 10).collect();
    let rows: Vec<Row> = parallel_points(proportions.clone(), |&pct| {
        let global_pods = ((pct * pods + 50) / 100).clamp(1, pods - 1);
        let mode = Mode::two_zone(pods, global_pods);
        let hybrid = ft.materialize(&mode).unwrap();

        let servers_a = zone_servers(&hybrid, 0..global_pods);
        let servers_b = zone_servers(&hybrid, global_pods..pods);
        // zone A: hot-spot clusters as in Figure 7, sized to the zone
        let spec_a = WorkloadSpec {
            pattern: TrafficPattern::HotSpot,
            cluster_size: 1000,
            locality: Locality::Strong,
        };
        // zone B: 20-server all-to-all clusters as in Figure 8
        let spec_b = WorkloadSpec {
            pattern: TrafficPattern::AllToAll,
            cluster_size: 20,
            locality: Locality::Strong,
        };
        let com_a = commodities_for(&hybrid, &servers_a, &spec_a, opts.seed);
        let com_b = commodities_for(&hybrid, &servers_b, &spec_b, opts.seed);
        let mut gaps = GapReport::default();
        let mut solve = |net: &Network, com: &[Commodity]| {
            let r = throughput_on_commodities(net, com, topts).unwrap();
            gaps.add(&r);
            r.lambda
        };
        let zone_a = solve(&hybrid, &com_a);
        let zone_b = solve(&hybrid, &com_b);
        let mut joint_com = com_a.clone();
        joint_com.extend_from_slice(&com_b);
        let joint = solve(&hybrid, &joint_com);

        // complete-network references: same servers, same workload, whole
        // fabric in the zone's mode
        let ref_a = solve(
            &full_global,
            &commodities_for(&full_global, &servers_a, &spec_a, opts.seed),
        );
        let ref_b = solve(
            &full_local,
            &commodities_for(&full_local, &servers_b, &spec_b, opts.seed),
        );
        Row {
            proportion: pct,
            zone_a,
            ref_a,
            zone_b,
            ref_b,
            joint,
            gaps,
        }
    });

    let mut table = Table::new(&[
        "global-zone %",
        "zoneA λ (hybrid)",
        "zoneA λ (complete)",
        "zoneB λ (hybrid)",
        "zoneB λ (complete)",
        "joint λ",
    ]);
    for r in &rows {
        table.push_row(vec![
            r.proportion.to_string(),
            format!("{:.4}", r.zone_a),
            format!("{:.4}", r.ref_a),
            format!("{:.4}", r.zone_b),
            format!("{:.4}", r.ref_b),
            format!("{:.4}", r.joint),
        ]);
    }
    print_figure(
        &format!("§3.4: hybrid flat-tree zone isolation (k = {k})"),
        "paper claim: each zone achieves the complete network's throughput at every proportion",
        &table,
        opts.csv_path.as_deref(),
    );
    let mut gaps = GapReport::default();
    for r in &rows {
        gaps.merge(&r.gaps);
    }
    gaps.print();

    let mut checks = ShapeChecks::new();
    for r in &rows {
        checks.check(
            &format!("{}%: zone A matches complete network", r.proportion),
            rel_diff(r.zone_a, r.ref_a) <= 0.15,
            format!(
                "hybrid {:.4} vs complete {:.4} ({:.1}%)",
                r.zone_a,
                r.ref_a,
                100.0 * rel_diff(r.zone_a, r.ref_a)
            ),
        );
        checks.check(
            &format!("{}%: zone B matches complete network", r.proportion),
            rel_diff(r.zone_b, r.ref_b) <= 0.15,
            format!(
                "hybrid {:.4} vs complete {:.4} ({:.1}%)",
                r.zone_b,
                r.ref_b,
                100.0 * rel_diff(r.zone_b, r.ref_b)
            ),
        );
        let floor = r.zone_a.min(r.zone_b);
        checks.check(
            &format!("{}%: joint run does not collapse either zone", r.proportion),
            r.joint >= 0.8 * floor,
            format!("joint {:.4} vs per-zone floor {:.4}", r.joint, floor),
        );
    }
    let _ = PodMode::Clos; // (referenced for doc completeness)
    checks.finish();
}
