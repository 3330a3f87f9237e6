//! A dense two-phase simplex linear programming solver.
//!
//! The paper's throughput methodology (§3.1) solves the maximum concurrent
//! multi-commodity flow problem "using a linear programming solver". The
//! authors used an unnamed (presumably commercial) solver; this crate is the
//! from-scratch substitute. It provides **exact** optima for the small
//! instances used in tests and cross-validation, while `ft-mcf` provides the
//! Fleischer–Garg–Könemann FPTAS for large instances.
//!
//! The solver is a textbook dense tableau simplex:
//!
//! * maximization over `x ≥ 0` with `≤`, `≥` and `=` constraints,
//! * phase 1 minimizes the sum of artificial variables to find a basic
//!   feasible solution, phase 2 optimizes the real objective,
//! * Dantzig pricing with a Bland's-rule fallback after an iteration budget
//!   to guarantee termination under degeneracy.
//!
//! Dense tableaus are O(rows × cols) per pivot, which is perfectly adequate
//! for the ≤ few-thousand-variable MCF instances we solve exactly; anything
//! bigger goes through the FPTAS.
//!
//! # Example
//!
//! ```
//! use ft_lp::{LpError, LpProblem};
//!
//! # fn main() -> Result<(), LpError> {
//! // maximize 3x + 2y  s.t.  x + y ≤ 4,  x + 3y ≤ 6
//! let mut lp = LpProblem::new();
//! let x = lp.add_var(3.0);
//! let y = lp.add_var(2.0);
//! lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! lp.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
//! let sol = lp.solve().optimal()?;
//! assert!((sol.objective - 12.0).abs() < 1e-9); // x = 4, y = 0
//! # Ok(())
//! # }
//! ```

// Unit tests are exempt from the panic-free policy (see DESIGN.md,
// "Static analysis & error-handling policy").
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod simplex;

/// Handle to a decision variable of an [`LpProblem`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(pub usize);

/// Comparison direction of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// A linear constraint in sparse form.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// `(variable, coefficient)` terms; duplicate variables are summed.
    pub terms: Vec<(Var, f64)>,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: maximize `c·x` subject to linear constraints and
/// `x ≥ 0`.
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

/// An optimal solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The optimal objective value.
    pub objective: f64,
    /// The optimal variable assignment, indexed by [`Var`].
    pub values: Vec<f64>,
}

impl Solution {
    /// Value of a variable in the optimal assignment.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.0]
    }
}

/// Outcome of [`LpProblem::solve`].
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(Solution),
    /// The constraint set is empty (no feasible point).
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
}

/// Error returned when an optimal solution was required but the LP turned
/// out infeasible or unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
        }
    }
}

impl std::error::Error for LpError {}

impl LpOutcome {
    /// Extracts the optimal solution, or reports why there is none.
    ///
    /// Callers that know their model is feasible and bounded (e.g. the MCF
    /// formulations, which always admit the zero flow) typically propagate
    /// the error as an internal-consistency failure.
    pub fn optimal(self) -> Result<Solution, LpError> {
        match self {
            LpOutcome::Optimal(s) => Ok(s),
            LpOutcome::Infeasible => Err(LpError::Infeasible),
            LpOutcome::Unbounded => Err(LpError::Unbounded),
        }
    }
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with the given objective coefficient; returns its
    /// handle. Variables are implicitly non-negative.
    pub fn add_var(&mut self, objective_coeff: f64) -> Var {
        assert!(
            objective_coeff.is_finite(),
            "objective coefficient must be finite"
        );
        let v = Var(self.objective.len());
        self.objective.push(objective_coeff);
        v
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint `Σ terms ≤ rhs`.
    pub fn add_le(&mut self, terms: &[(Var, f64)], rhs: f64) {
        self.add_constraint(terms, Cmp::Le, rhs);
    }

    /// Adds a constraint `Σ terms = rhs`.
    pub fn add_eq(&mut self, terms: &[(Var, f64)], rhs: f64) {
        self.add_constraint(terms, Cmp::Eq, rhs);
    }

    /// Adds a constraint `Σ terms ≥ rhs`.
    pub fn add_ge(&mut self, terms: &[(Var, f64)], rhs: f64) {
        self.add_constraint(terms, Cmp::Ge, rhs);
    }

    /// Adds a constraint with an explicit comparison direction.
    ///
    /// # Panics
    /// Panics on out-of-range variables or non-finite coefficients/rhs.
    pub fn add_constraint(&mut self, terms: &[(Var, f64)], cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "rhs must be finite");
        for &(v, c) in terms {
            assert!(v.0 < self.objective.len(), "variable {v:?} out of range");
            assert!(c.is_finite(), "coefficient must be finite");
        }
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            cmp,
            rhs,
        });
    }

    /// Solves the problem with the two-phase dense simplex.
    pub fn solve(&self) -> LpOutcome {
        simplex::solve(self)
    }

    pub(crate) fn objective(&self) -> &[f64] {
        &self.objective
    }

    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(lp: &LpProblem) -> Solution {
        lp.solve().optimal().unwrap()
    }

    #[test]
    fn unconstrained_zero_objective() {
        let mut lp = LpProblem::new();
        let _x = lp.add_var(0.0);
        let s = opt(&lp);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn simple_bounded_max() {
        // max x s.t. x ≤ 7
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_le(&[(x, 1.0)], 7.0);
        let s = opt(&lp);
        assert!((s.objective - 7.0).abs() < 1e-9);
        assert!((s.value(x) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn classic_two_var() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36
        let mut lp = LpProblem::new();
        let x = lp.add_var(3.0);
        let y = lp.add_var(5.0);
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 2.0)], 12.0);
        lp.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s = opt(&lp);
        assert!((s.objective - 36.0).abs() < 1e-9);
        assert!((s.value(x) - 2.0).abs() < 1e-9);
        assert!((s.value(y) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(0.0);
        lp.add_ge(&[(x, 1.0), (y, -1.0)], 0.0); // x ≥ y, growing together
        assert!(matches!(lp.solve(), LpOutcome::Unbounded));
    }

    #[test]
    fn optimal_reports_failure_kind() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_le(&[(x, 1.0)], 1.0);
        lp.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(lp.solve().optimal().unwrap_err(), LpError::Infeasible);

        let mut lp = LpProblem::new();
        lp.add_var(1.0);
        assert_eq!(lp.solve().optimal().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_le(&[(x, 1.0)], 1.0);
        lp.add_ge(&[(x, 1.0)], 2.0);
        assert!(matches!(lp.solve(), LpOutcome::Infeasible));
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x - y = 1 → x = 2, y = 1
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 3.0);
        lp.add_eq(&[(x, 1.0), (y, -1.0)], 1.0);
        let s = opt(&lp);
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!((s.value(x) - 2.0).abs() < 1e-9);
        assert!((s.value(y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ge_constraints_minimization_style() {
        // max -2x - 3y s.t. x + y ≥ 4, x ≥ 1 (i.e. min 2x + 3y)
        // optimum x = 4, y = 0 → obj -8
        let mut lp = LpProblem::new();
        let x = lp.add_var(-2.0);
        let y = lp.add_var(-3.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_ge(&[(x, 1.0)], 1.0);
        let s = opt(&lp);
        assert!((s.objective + 8.0).abs() < 1e-9, "obj {}", s.objective);
    }

    #[test]
    fn negative_rhs_normalized() {
        // max x s.t. -x ≥ -5 ⇔ x ≤ 5
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_ge(&[(x, -1.0)], -5.0);
        let s = opt(&lp);
        assert!((s.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_terms_summed() {
        // max x s.t. 0.5x + 0.5x ≤ 3
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_le(&[(x, 0.5), (x, 0.5)], 3.0);
        let s = opt(&lp);
        assert!((s.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic Beale cycling example (with Dantzig rule simplex can
        // cycle); the Bland fallback must terminate.
        let mut lp = LpProblem::new();
        let x1 = lp.add_var(0.75);
        let x2 = lp.add_var(-150.0);
        let x3 = lp.add_var(0.02);
        let x4 = lp.add_var(-6.0);
        lp.add_le(&[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        lp.add_le(&[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        lp.add_le(&[(x3, 1.0)], 1.0);
        let s = opt(&lp);
        assert!((s.objective - 0.05).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn redundant_constraints_ok() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_le(&[(x, 1.0)], 5.0);
        lp.add_le(&[(x, 1.0)], 5.0);
        lp.add_le(&[(x, 2.0)], 10.0);
        let s = opt(&lp);
        assert!((s.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality_feasible_at_origin() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(-1.0);
        lp.add_eq(&[(x, 1.0), (y, -1.0)], 0.0);
        lp.add_le(&[(x, 1.0)], 2.0);
        let s = opt(&lp);
        // max x - y with x = y → objective 0
        assert!(s.objective.abs() < 1e-9);
    }

    #[test]
    fn small_concurrent_flow_lp() {
        // Tiny concurrent-flow instance solved by hand:
        // triangle a-b-c, unit capacities, commodities (a→b) and (a→c),
        // maximize λ with each commodity shipping λ.
        // Edge-based formulation on directed arcs.
        // The cut around `a` has two outgoing arcs of capacity 1 serving
        // total demand 2λ, so λ ≤ 1; routing both commodities directly
        // achieves λ = 1.
        let mut lp = LpProblem::new();
        let lambda = lp.add_var(1.0);
        // flow variables: f[commodity][arc], arcs: ab, ba, bc, cb, ac, ca
        let arcs = 6;
        let mut f = Vec::new();
        for _ in 0..2 {
            let mut row = Vec::new();
            for _ in 0..arcs {
                row.push(lp.add_var(0.0));
            }
            f.push(row);
        }
        let (ab, ba, bc, cb, ac, ca) = (0, 1, 2, 3, 4, 5);
        // capacity: each undirected edge carries total flow ≤ 1 per direction
        for arc in 0..arcs {
            let _ = arc;
        }
        for (f0, f1) in f[0].iter().zip(&f[1]) {
            lp.add_le(&[(*f0, 1.0), (*f1, 1.0)], 1.0);
        }
        // conservation for commodity 0 (a→b): node c balanced
        lp.add_eq(
            &[
                (f[0][ac], 1.0),
                (f[0][bc], 1.0),
                (f[0][ca], -1.0),
                (f[0][cb], -1.0),
            ],
            0.0,
        );
        // source a ships λ net
        lp.add_eq(
            &[
                (f[0][ab], 1.0),
                (f[0][ac], 1.0),
                (f[0][ba], -1.0),
                (f[0][ca], -1.0),
                (lambda, -1.0),
            ],
            0.0,
        );
        // commodity 1 (a→c): node b balanced
        lp.add_eq(
            &[
                (f[1][ab], 1.0),
                (f[1][cb], 1.0),
                (f[1][ba], -1.0),
                (f[1][bc], -1.0),
            ],
            0.0,
        );
        lp.add_eq(
            &[
                (f[1][ab], 1.0),
                (f[1][ac], 1.0),
                (f[1][ba], -1.0),
                (f[1][ca], -1.0),
                (lambda, -1.0),
            ],
            0.0,
        );
        let s = opt(&lp);
        assert!((s.objective - 1.0).abs() < 1e-6, "λ = {}", s.objective);
    }
}
