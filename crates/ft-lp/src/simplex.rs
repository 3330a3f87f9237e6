//! The dense two-phase tableau simplex engine.
//!
//! Separated from the model-building API in `lib.rs` so the numerical core
//! can be tested and reasoned about in isolation.

use crate::{Cmp, LpOutcome, LpProblem, Solution};

/// Numerical tolerance for pivoting and optimality tests.
const EPS: f64 = 1e-9;

/// A dense simplex tableau in canonical form.
///
/// `rows[i]` holds the coefficients of constraint `i` over all columns plus
/// the right-hand side in the final position. `basis[i]` is the column
/// currently basic in row `i`. `obj` is the reduced-cost row and `obj_val`
/// the current objective value.
struct Tableau {
    rows: Vec<Vec<f64>>,
    basis: Vec<usize>,
    obj: Vec<f64>,
    obj_val: f64,
    ncols: usize,
    /// columns that may never enter the basis (artificials in phase 2)
    banned: Vec<bool>,
}

impl Tableau {
    fn rhs(&self, i: usize) -> f64 {
        self.rows[i][self.ncols]
    }

    /// Eliminates basic columns from the objective row so reduced costs are
    /// consistent with the current basis.
    fn canonicalize(&mut self) {
        for i in 0..self.rows.len() {
            let col = self.basis[i];
            let factor = self.obj[col];
            if factor.abs() > 0.0 {
                let row = self.rows[i].clone();
                for (j, rj) in row.iter().enumerate().take(self.ncols) {
                    self.obj[j] -= factor * rj;
                }
                self.obj_val += factor * row[self.ncols];
            }
        }
    }

    /// Performs one pivot on (row `r`, column `c`).
    fn pivot(&mut self, r: usize, c: usize) {
        let piv = self.rows[r][c];
        debug_assert!(piv.abs() > EPS, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        for v in self.rows[r].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.rows[r].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == r {
                continue;
            }
            let f = row[c];
            if f.abs() > 0.0 {
                for (v, p) in row.iter_mut().zip(&pivot_row) {
                    *v -= f * p;
                }
                // guard against drift: the pivot column must become exactly 0
                row[c] = 0.0;
            }
        }
        let f = self.obj[c];
        if f.abs() > 0.0 {
            for (v, p) in self.obj.iter_mut().zip(&pivot_row[..self.ncols]) {
                *v -= f * p;
            }
            self.obj_val += f * pivot_row[self.ncols];
            self.obj[c] = 0.0;
        }
        self.basis[r] = c;
    }

    /// Runs the simplex loop to optimality. Returns `false` if unbounded.
    ///
    /// Uses Dantzig pricing, switching to Bland's rule after an iteration
    /// budget to guarantee termination under degeneracy.
    fn optimize(&mut self) -> bool {
        let m = self.rows.len();
        let bland_after = 50 * (m + self.ncols) + 1000;
        let mut iters = 0usize;
        loop {
            iters += 1;
            let use_bland = iters > bland_after;
            // entering column
            let mut enter = None;
            if use_bland {
                for j in 0..self.ncols {
                    if !self.banned[j] && self.obj[j] > EPS {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = EPS;
                for j in 0..self.ncols {
                    if !self.banned[j] && self.obj[j] > best {
                        best = self.obj[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(c) = enter else {
                return true; // optimal
            };
            // ratio test: min rhs/a over a > 0; under Bland, ties broken by
            // the smallest basic-variable index to prevent cycling
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = self.rows[i][c];
                if a <= EPS {
                    continue;
                }
                let ratio = self.rhs(i) / a;
                match leave {
                    None => {
                        leave = Some(i);
                        best_ratio = ratio;
                    }
                    Some(l) => {
                        if ratio < best_ratio - EPS {
                            leave = Some(i);
                            best_ratio = ratio;
                        } else if use_bland
                            && ratio < best_ratio + EPS
                            && self.basis[i] < self.basis[l]
                        {
                            leave = Some(i);
                            best_ratio = best_ratio.min(ratio);
                        }
                    }
                }
            }
            let Some(r) = leave else {
                return false; // unbounded
            };
            self.pivot(r, c);
        }
    }
}

/// Solves an [`LpProblem`] (maximize `c·x`, `x ≥ 0`).
pub(crate) fn solve(lp: &LpProblem) -> LpOutcome {
    let n = lp.num_vars();
    let cons = lp.constraints();
    let m = cons.len();

    // Count auxiliary columns.
    let mut n_slack = 0;
    let mut n_art = 0;
    for c in cons {
        // after rhs normalization, Le gains a slack, Ge gains surplus +
        // artificial, Eq gains artificial
        let cmp = if c.rhs < 0.0 { flip(c.cmp) } else { c.cmp };
        match cmp {
            Cmp::Le => n_slack += 1,
            Cmp::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Cmp::Eq => n_art += 1,
        }
    }
    let ncols = n + n_slack + n_art;

    let mut rows = vec![vec![0.0; ncols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols = Vec::new();

    let mut slack_at = n;
    let mut art_at = n + n_slack;
    for (i, c) in cons.iter().enumerate() {
        let (sign, cmp) = if c.rhs < 0.0 {
            (-1.0, flip(c.cmp))
        } else {
            (1.0, c.cmp)
        };
        for &(v, coeff) in &c.terms {
            rows[i][v.0] += sign * coeff;
        }
        rows[i][ncols] = sign * c.rhs;
        match cmp {
            Cmp::Le => {
                rows[i][slack_at] = 1.0;
                basis[i] = slack_at;
                slack_at += 1;
            }
            Cmp::Ge => {
                rows[i][slack_at] = -1.0; // surplus
                slack_at += 1;
                rows[i][art_at] = 1.0;
                basis[i] = art_at;
                art_cols.push(art_at);
                art_at += 1;
            }
            Cmp::Eq => {
                rows[i][art_at] = 1.0;
                basis[i] = art_at;
                art_cols.push(art_at);
                art_at += 1;
            }
        }
    }

    let mut t = Tableau {
        rows,
        basis,
        obj: vec![0.0; ncols],
        obj_val: 0.0,
        ncols,
        banned: vec![false; ncols],
    };

    // Phase 1: maximize −Σ artificials.
    if !art_cols.is_empty() {
        for &a in &art_cols {
            t.obj[a] = -1.0;
        }
        t.canonicalize();
        let bounded = t.optimize();
        debug_assert!(bounded, "phase 1 objective is bounded by construction");
        if t.obj_val < -1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive remaining artificials out of the basis.
        let is_art = |col: usize| col >= n + n_slack;
        for i in 0..t.rows.len() {
            if is_art(t.basis[i]) {
                // find a non-artificial column with a nonzero coefficient
                let mut found = None;
                for j in 0..n + n_slack {
                    if t.rows[i][j].abs() > EPS {
                        found = Some(j);
                        break;
                    }
                }
                if let Some(j) = found {
                    t.pivot(i, j);
                }
                // else: redundant row; the artificial stays basic at value 0,
                // which is harmless once its column is banned below.
            }
        }
        for &a in &art_cols {
            t.banned[a] = true;
        }
    }

    // Phase 2: the real objective.
    t.obj = vec![0.0; ncols];
    t.obj_val = 0.0;
    t.obj[..n].copy_from_slice(lp.objective());
    t.canonicalize();
    if !t.optimize() {
        return LpOutcome::Unbounded;
    }

    let mut values = vec![0.0; n];
    for (i, &b) in t.basis.iter().enumerate() {
        if b < n {
            values[b] = t.rhs(i);
        }
    }
    LpOutcome::Optimal(Solution {
        objective: t.obj_val,
        values,
    })
}

fn flip(c: Cmp) -> Cmp {
    match c {
        Cmp::Le => Cmp::Ge,
        Cmp::Ge => Cmp::Le,
        Cmp::Eq => Cmp::Eq,
    }
}
