//! Converting workload traffic matrices into simulator flow lists.
//!
//! The paper's workloads (`ft-workload`) are demand matrices; the
//! simulator wants sized, timed flows. These helpers cover the two common
//! shapes: one batch of fixed-size flows ("run this workload once"), and a
//! load sweep where the same matrix arrives repeatedly at a configurable
//! rate (the classic FCT-vs-load methodology).

use crate::des::FlowSpec;
use ft_workload::TrafficMatrix;
use rand::prelude::*;

/// One flow per demand entry, all starting at `start`, each carrying
/// `size_per_unit × demand` volume.
pub fn flows_from_matrix(tm: &TrafficMatrix, size_per_unit: f64, start: f64) -> Vec<FlowSpec> {
    assert!(size_per_unit > 0.0, "flow size must be positive");
    tm.demands
        .iter()
        .map(|&(src, dst, d)| FlowSpec {
            src,
            dst,
            size: size_per_unit * d,
            start,
        })
        .collect()
}

/// Poisson-ish arrival schedule: each demand entry spawns `rounds` flows
/// whose inter-arrival gaps are exponential with mean `1/rate` (per flow),
/// deterministic for a given seed. Used by load sweeps.
///
/// Sampling is delegated to `ft_workload::arrivals::exponential_starts`;
/// one `StdRng` is shared across demands in matrix order, so a seed fixes
/// the whole schedule bit for bit.
pub fn flows_with_arrivals(
    tm: &TrafficMatrix,
    size_per_unit: f64,
    rate: f64,
    rounds: usize,
    seed: u64,
) -> Vec<FlowSpec> {
    assert!(size_per_unit > 0.0 && rate > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flows = Vec::with_capacity(tm.demands.len() * rounds);
    for &(src, dst, d) in &tm.demands {
        for t in ft_workload::arrivals::exponential_starts(&mut rng, rate, rounds) {
            flows.push(FlowSpec {
                src,
                dst,
                size: size_per_unit * d,
                start: t,
            });
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::NodeId;

    fn tm() -> TrafficMatrix {
        TrafficMatrix {
            demands: vec![(NodeId(10), NodeId(11), 1.0), (NodeId(12), NodeId(13), 2.5)],
        }
    }

    #[test]
    fn batch_conversion() {
        let flows = flows_from_matrix(&tm(), 4.0, 1.5);
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].size, 4.0);
        assert_eq!(flows[1].size, 10.0);
        assert!(flows.iter().all(|f| f.start == 1.5));
    }

    #[test]
    fn arrivals_are_increasing_per_demand() {
        let flows = flows_with_arrivals(&tm(), 1.0, 2.0, 5, 3);
        assert_eq!(flows.len(), 10);
        // per-demand arrival times strictly increase
        for chunk in flows.chunks(5) {
            for w in chunk.windows(2) {
                assert!(w[1].start > w[0].start);
            }
        }
    }

    #[test]
    fn arrivals_deterministic() {
        let a = flows_with_arrivals(&tm(), 1.0, 1.0, 4, 7);
        let b = flows_with_arrivals(&tm(), 1.0, 1.0, 4, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.start, y.start);
        }
    }

    #[test]
    fn higher_rate_arrives_sooner() {
        let slow = flows_with_arrivals(&tm(), 1.0, 0.5, 8, 1);
        let fast = flows_with_arrivals(&tm(), 1.0, 5.0, 8, 1);
        let mean = |v: &[FlowSpec]| v.iter().map(|f| f.start).sum::<f64>() / v.len() as f64;
        assert!(mean(&fast) < mean(&slow));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = flows_from_matrix(&tm(), 0.0, 0.0);
    }
}
