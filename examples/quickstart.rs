//! Quickstart: build a flat-tree, convert it between modes, measure it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the paper's core story in ~40 lines of API: a flat-tree is built
//! as a Clos network (identical to a fat-tree), then converted — by
//! reprogramming converter switches only — into approximated random
//! graphs, picking up most of the random graph's path-length advantage.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode, Topology};
use flat_tree::metrics::path_length::average_server_path_length;

fn main() {
    let k = 8;
    println!("building flat-tree for fat-tree parameter k = {k}\n");

    // The paper's profiled configuration: m = k/8, n = 2k/8 converter
    // switches per edge/aggregation pair (§3.2).
    let cfg = FlatTreeConfig::for_fat_tree_k(k).expect("k = 8 is valid");
    println!(
        "configuration: m = {} six-port + n = {} four-port converters per pair, pattern {:?}",
        cfg.m,
        cfg.n,
        cfg.resolved_pattern()
    );
    let ft = FlatTree::new(cfg).expect("validated configuration");

    // Materialize each operation mode and measure it.
    println!(
        "\n{:<12} {:>9} {:>9} {:>8}",
        "mode", "switches", "links", "APL"
    );
    for mode in [Mode::Clos, Mode::LocalRandom, Mode::GlobalRandom] {
        let net = ft.materialize(&mode).unwrap();
        println!(
            "{:<12} {:>9} {:>9} {:>8.4}",
            mode.label(),
            net.num_switches(),
            net.graph().edge_count(),
            average_server_path_length(&net)
        );
    }

    // Clos mode is link-identical to the reference fat-tree.
    let clos = ft.materialize(&Mode::Clos).unwrap();
    let reference = Topology::FatTree.build(k, 1).unwrap();
    assert_eq!(
        clos.graph().canonical_edges(),
        reference.graph().canonical_edges()
    );
    println!("\nClos mode reproduces fat-tree(k={k}) link-for-link ✓");

    // And global mode approaches the true random graph's path length.
    let flat = average_server_path_length(&ft.materialize(&Mode::GlobalRandom).unwrap());
    let rg = average_server_path_length(&Topology::RandomGraph.build(k, 1).unwrap());
    println!(
        "global-random APL {flat:.4} vs true random graph {rg:.4} ({:+.1}%)",
        100.0 * (flat - rg) / rg
    );
}
