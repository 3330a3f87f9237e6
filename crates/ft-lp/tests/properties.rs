//! Property-based validation of the simplex solver against first
//! principles: optimal solutions must be feasible, and must dominate every
//! sampled feasible point.

use ft_lp::{LpOutcome, LpProblem, Var};
use proptest::prelude::*;

/// A random bounded standard-form LP: maximize c·x, Ax ≤ b, x ≥ 0 with
/// non-negative A rows that include an explicit box constraint per
/// variable so the problem is always bounded and feasible (origin).
#[derive(Debug, Clone)]
struct RandomLp {
    c: Vec<f64>,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
}

fn arb_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..5, 0usize..5).prop_flat_map(|(n, extra_rows)| {
        let c = proptest::collection::vec(-5.0..10.0f64, n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(0.0..3.0f64, n), 0.5..8.0f64),
            extra_rows,
        );
        (c, rows).prop_map(move |(c, rows)| {
            let mut a = Vec::new();
            let mut b = Vec::new();
            // box constraints keep everything bounded
            for i in 0..n {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                a.push(row);
                b.push(4.0);
            }
            for (row, rhs) in rows {
                a.push(row);
                b.push(rhs);
            }
            RandomLp { c, a, b }
        })
    })
}

/// Solves `lp`, which is bounded and feasible by construction: any outcome
/// but an optimum fails the case.
fn solve(lp: &RandomLp) -> Result<(f64, Vec<f64>), TestCaseError> {
    let mut p = LpProblem::new();
    let vars: Vec<Var> = lp.c.iter().map(|&ci| p.add_var(ci)).collect();
    for (row, &rhs) in lp.a.iter().zip(&lp.b) {
        let terms: Vec<(Var, f64)> = vars.iter().copied().zip(row.iter().copied()).collect();
        p.add_le(&terms, rhs);
    }
    match p.solve() {
        LpOutcome::Optimal(s) => Ok((s.objective, s.values)),
        other => Err(TestCaseError::Fail(format!(
            "bounded feasible LP reported {other:?}"
        ))),
    }
}

fn feasible(lp: &RandomLp, x: &[f64]) -> bool {
    if x.iter().any(|&v| v < -1e-7) {
        return false;
    }
    lp.a.iter().zip(&lp.b).all(|(row, &rhs)| {
        let lhs: f64 = row.iter().zip(x).map(|(a, v)| a * v).sum();
        lhs <= rhs + 1e-7
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reported optimum is feasible and its objective matches c·x.
    #[test]
    fn optimum_is_feasible_and_consistent(lp in arb_lp()) {
        let (obj, x) = solve(&lp)?;
        prop_assert!(feasible(&lp, &x), "infeasible optimum {x:?}");
        let recomputed: f64 = lp.c.iter().zip(&x).map(|(c, v)| c * v).sum();
        prop_assert!((obj - recomputed).abs() < 1e-6);
    }

    /// No sampled feasible point beats the reported optimum.
    #[test]
    fn optimum_dominates_samples(
        lp in arb_lp(),
        samples in proptest::collection::vec(
            proptest::collection::vec(0.0..4.0f64, 4), 16)
    ) {
        let (obj, _) = solve(&lp)?;
        for s in samples {
            let x = &s[..lp.c.len().min(s.len())];
            let mut padded = x.to_vec();
            padded.resize(lp.c.len(), 0.0);
            if feasible(&lp, &padded) {
                let val: f64 = lp.c.iter().zip(&padded).map(|(c, v)| c * v).sum();
                prop_assert!(val <= obj + 1e-6, "sample {val} beats optimum {obj}");
            }
        }
    }

    /// Scaling the objective scales the optimum (for non-negative scale).
    #[test]
    fn objective_scaling(lp in arb_lp(), scale in 0.1..5.0f64) {
        let (obj, _) = solve(&lp)?;
        let scaled = RandomLp {
            c: lp.c.iter().map(|c| c * scale).collect(),
            ..lp.clone()
        };
        let (obj2, _) = solve(&scaled)?;
        prop_assert!((obj2 - obj * scale).abs() < 1e-5 * (1.0 + obj.abs()),
                     "{obj2} vs {}", obj * scale);
    }

    /// Adding a constraint never improves the optimum.
    #[test]
    fn adding_constraints_monotone(lp in arb_lp(), rhs in 0.5..6.0f64) {
        let (obj, _) = solve(&lp)?;
        let mut tightened = lp.clone();
        tightened.a.push(vec![1.0; lp.c.len()]);
        tightened.b.push(rhs);
        let (obj2, _) = solve(&tightened)?;
        prop_assert!(obj2 <= obj + 1e-6);
    }
}
