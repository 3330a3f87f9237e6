//! Seeded arrival-time generators for flow-level simulation.
//!
//! The FCT-vs-load methodology (Jellyfish, DCTCP) replays a demand matrix
//! as repeated flow arrivals whose inter-arrival gaps are exponential —
//! a Poisson process per demand pair. The sampling lives here, next to
//! the traffic patterns, so every caller that replays a matrix draws the
//! *same* arrival schedule from the same seed.

use rand::prelude::*;

/// Cumulative arrival times of a Poisson process: `rounds` samples whose
/// gaps are exponential with mean `1/rate`, drawn from `rng` by inverse
/// transform. Strictly increasing, deterministic for a given rng state.
pub fn exponential_starts(rng: &mut StdRng, rate: f64, rounds: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity(rounds);
    let mut t = 0.0;
    for _ in 0..rounds {
        // inverse-transform exponential sample; clamp u away from 0 so
        // ln never sees it
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / rate;
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_strictly_increase() {
        let mut rng = StdRng::seed_from_u64(9);
        let starts = exponential_starts(&mut rng, 2.0, 50);
        assert_eq!(starts.len(), 50);
        assert!(starts[0] > 0.0);
        for w in starts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = exponential_starts(&mut StdRng::seed_from_u64(3), 1.0, 16);
        let b = exponential_starts(&mut StdRng::seed_from_u64(3), 1.0, 16);
        assert_eq!(a, b);
        let c = exponential_starts(&mut StdRng::seed_from_u64(4), 1.0, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_gap_tracks_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4000;
        let starts = exponential_starts(&mut rng, 4.0, n);
        let mean_gap = starts[n - 1] / n as f64;
        assert!(
            (mean_gap - 0.25).abs() < 0.02,
            "mean gap {mean_gap} far from 1/rate"
        );
    }

    #[test]
    fn zero_rounds_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(exponential_starts(&mut rng, 1.0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_rate_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = exponential_starts(&mut rng, 0.0, 4);
    }
}
