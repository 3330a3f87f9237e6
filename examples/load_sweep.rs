//! Flow-completion-time vs offered load — the classic transport-level view
//! of what convertibility buys (extension beyond the paper's LP numbers).
//!
//! ```text
//! cargo run --release --example load_sweep
//! ```
//!
//! The same hot-spot traffic matrix arrives repeatedly at increasing rates
//! (exponential inter-arrivals) on a flat-tree in Clos mode (ECMP routing)
//! and in approximated-global-random-graph mode (8-shortest-paths
//! routing). Mean FCT is reported per load level; the flattened topology
//! sustains the hot spot visibly deeper into the load range.

use flat_tree::core::{FlatTree, FlatTreeConfig, Mode};
use flat_tree::sim::{flows_with_arrivals, DesSimulator, RouterPolicy};
use flat_tree::workload::{generate, Locality, TrafficPattern, WorkloadSpec};

fn main() {
    let k = 8;
    let ft = FlatTree::new(FlatTreeConfig::for_fat_tree_k(k).unwrap()).unwrap();
    let spec = WorkloadSpec {
        pattern: TrafficPattern::HotSpot,
        cluster_size: 64,
        locality: Locality::Strong,
    };
    let rates = [0.01, 0.05, 0.25, 1.0];
    let rounds = 3;

    println!(
        "mean FCT by offered load (hot-spot clusters, {} arrival rounds):\n",
        rounds
    );
    print!("{:<22}", "arrival rate");
    for r in &rates {
        print!("{r:>10}");
    }
    println!();
    println!("{}", "-".repeat(22 + 10 * rates.len()));

    let mut rows = Vec::new();
    for (mode, policy, label) in [
        (Mode::Clos, RouterPolicy::Ecmp, "clos + ECMP"),
        (Mode::GlobalRandom, RouterPolicy::Ksp(8), "global-rg + KSP8"),
    ] {
        let net = ft.materialize(&mode).unwrap();
        let tm = generate(&net, &spec, 11);
        print!("{label:<22}");
        let mut fcts = Vec::new();
        for &rate in &rates {
            let flows = flows_with_arrivals(&tm, 5.0, rate, rounds, 13);
            let report = DesSimulator::new(&net, policy)
                .run(&flows, &[], 1e9)
                .unwrap();
            assert_eq!(report.unfinished(), 0);
            let fct = report.mean_fct(&flows);
            fcts.push(fct);
            print!("{fct:>10.2}");
        }
        println!();
        rows.push(fcts);
    }
    println!(
        "\nat the heaviest load the flattened fabric improves mean FCT by {:.0}%",
        100.0 * (1.0 - rows[1].last().unwrap() / rows[0].last().unwrap())
    );
}
