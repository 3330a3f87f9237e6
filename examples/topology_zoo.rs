//! Topology zoo: build every topology family from the same equipment and
//! compare their structure.
//!
//! ```text
//! cargo run --release --example topology_zoo [-- k]
//! ```
//!
//! Prints the equipment inventory (identical by construction), structural
//! statistics (diameter, mean switch distance, path-length histogram) and
//! writes Graphviz DOT files to `target/topologies/` for visualization
//! with `dot -Tsvg`.

use flat_tree::core::{PodMode, Topology};
use flat_tree::graph::bridges::bridges;
use flat_tree::graph::stats::{diameter, mean_degree};
use flat_tree::metrics::path_length::{average_server_path_length, path_length_histogram};
use flat_tree::topo::export::to_dot;
use flat_tree::topo::Network;

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("k must be an even integer"))
        .unwrap_or(8);
    let zoo: Vec<(&str, Network)> = [
        ("fat-tree", Topology::FatTree),
        ("random-graph", Topology::RandomGraph),
        ("two-stage-rg", Topology::TwoStage),
        ("flat-tree-clos", Topology::FlatTree(PodMode::Clos)),
        ("flat-tree-local", Topology::FlatTree(PodMode::LocalRandom)),
        (
            "flat-tree-global",
            Topology::FlatTree(PodMode::GlobalRandom),
        ),
    ]
    .into_iter()
    .map(|(name, topology)| (name, topology.build(k, 7).unwrap()))
    .collect();

    let eq = zoo[0].1.equipment();
    println!(
        "equipment (identical across the zoo): {} switches × {k} ports, {} servers, {} links\n",
        eq.switches, eq.servers, eq.links
    );
    println!(
        "{:<18} {:>9} {:>10} {:>8} {:>8} {:>24}",
        "topology", "diameter", "mean deg", "bridges", "APL", "hop histogram (2..)"
    );
    for (name, net) in &zoo {
        assert_eq!(net.equipment(), eq, "{name} must reuse the same hardware");
        let sg = net.switch_graph();
        let hist = path_length_histogram(net);
        let hist_str: Vec<String> = hist
            .iter()
            .enumerate()
            .skip(2)
            .map(|(h, &c)| format!("{h}:{c}"))
            .collect();
        println!(
            "{:<18} {:>9} {:>10.2} {:>8} {:>8.4} {:>24}",
            name,
            diameter(&sg).map(|d| d.to_string()).unwrap_or("∞".into()),
            mean_degree(&sg),
            bridges(&sg).len(),
            average_server_path_length(net),
            hist_str.join(" ")
        );
    }

    let dir = std::path::Path::new("target/topologies");
    std::fs::create_dir_all(dir).expect("create output dir");
    for (name, net) in &zoo {
        let path = dir.join(format!("{name}-k{k}.dot"));
        std::fs::write(&path, to_dot(net)).expect("write DOT");
    }
    println!("\nDOT files written to target/topologies/ (render with `dot -Tsvg`)");
}
