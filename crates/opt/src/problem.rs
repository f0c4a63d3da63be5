//! The constrained-problem interface consumed by [`crate::auglag`].

use crate::tape::{Expr, Graph};

/// Expression handles of a problem instantiated on a graph:
/// minimize `objective` subject to `inequalities[i] ≤ 0` and
/// `equalities[j] = 0`.
#[derive(Debug)]
pub struct ProblemExprs<'g> {
    /// The scalar objective to minimize.
    pub objective: Expr<'g>,
    /// Constraint expressions; feasible iff `≤ 0`.
    pub inequalities: Vec<Expr<'g>>,
    /// Constraint expressions; feasible iff `= 0`.
    pub equalities: Vec<Expr<'g>>,
}

/// Sparse rows of linear functions `g_i(x) = Σ_k c_k · x[col_k] + b_i`
/// in CSR layout: row `i`'s terms live at `offsets[i]..offsets[i+1]`.
///
/// This is the hot-path representation for problems whose constraints
/// are all linear (both NLPs of this workspace): the augmented
/// Lagrangian evaluates constraint values and penalty gradients
/// directly from these rows in plain `f64` — the coefficient of a
/// linear function *is* its gradient — instead of re-recording every
/// constraint on the AD tape at every merit evaluation.
#[derive(Debug, Clone, Default)]
pub struct SparseLinear {
    offsets: Vec<u32>,
    cols: Vec<u32>,
    coeffs: Vec<f64>,
    bias: Vec<f64>,
}

impl SparseLinear {
    /// An empty row set.
    pub fn new() -> Self {
        SparseLinear {
            offsets: vec![0],
            cols: Vec::new(),
            coeffs: Vec::new(),
            bias: Vec::new(),
        }
    }

    /// Appends one row `Σ coeff·x[col] + bias`.
    pub fn push_row(&mut self, terms: &[(usize, f64)], bias: f64) {
        for &(col, coeff) in terms {
            self.cols.push(col as u32);
            self.coeffs.push(coeff);
        }
        self.offsets.push(self.cols.len() as u32);
        self.bias.push(bias);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.bias.len()
    }

    /// The rows in order, each as a view of its own terms.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = SparseRow<'_>> {
        self.offsets
            .windows(2)
            .zip(&self.bias)
            .map(|(span, &bias)| {
                let (lo, hi) = (span[0] as usize, span[1] as usize);
                SparseRow {
                    cols: &self.cols[lo..hi],
                    coeffs: &self.coeffs[lo..hi],
                    bias,
                }
            })
    }

    /// Value of row `i` at `x`, indexing the CSR arrays term by term: the
    /// reference [`SparseRow::value`] is tested against.
    #[cfg(test)]
    pub(crate) fn value(&self, i: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let mut v = self.bias[i];
        for k in lo..hi {
            v += self.coeffs[k] * x[self.cols[k] as usize];
        }
        v
    }

    /// Adds `scale · ∇g_i` into `grad`, indexing the CSR arrays term by
    /// term: the reference [`SparseRow::add_scaled_to`] is tested against.
    #[cfg(test)]
    pub(crate) fn add_scaled_gradient(&self, i: usize, scale: f64, grad: &mut [f64]) {
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        for k in lo..hi {
            grad[self.cols[k] as usize] += scale * self.coeffs[k];
        }
    }
}

/// One row `Σ_k c_k · x[col_k] + b` of a [`SparseLinear`], borrowed as
/// slices of its columns and coefficients (see [`SparseLinear::iter`]).
#[derive(Debug, Clone, Copy)]
pub struct SparseRow<'a> {
    cols: &'a [u32],
    coeffs: &'a [f64],
    bias: f64,
}

impl SparseRow<'_> {
    /// Value of the row at `x`: the bias, then each term in column order.
    #[inline]
    pub fn value(&self, x: &[f64]) -> f64 {
        let mut v = self.bias;
        for (&col, &coeff) in self.cols.iter().zip(self.coeffs) {
            v += coeff * x[col as usize];
        }
        v
    }

    /// Adds `scale · ∇g` into `grad` (the gradient of a linear row is its
    /// constant coefficient pattern).
    #[inline]
    pub fn add_scaled_to(&self, scale: f64, grad: &mut [f64]) {
        for (&col, &coeff) in self.cols.iter().zip(self.coeffs) {
            grad[col as usize] += scale * coeff;
        }
    }
}

/// The linear constraint system of a [`ConstrainedProblem`] whose
/// constraints are all linear: `ineq` rows feasible iff `≤ 0`, `eq`
/// rows feasible iff `= 0`. Row order must match the order
/// [`ConstrainedProblem::build`] pushes the corresponding expressions
/// (multiplier vectors are indexed by that order and shared across both
/// evaluation paths).
#[derive(Debug, Clone, Default)]
pub struct LinearConstraints {
    /// Inequality rows (`≤ 0`).
    pub ineq: SparseLinear,
    /// Equality rows (`= 0`).
    pub eq: SparseLinear,
}

/// A smooth constrained minimization problem, expressed by building its
/// objective and constraints on an AD [`Graph`].
///
/// `smoothing` is a temperature for piecewise operations (`max`, `clamp`):
/// implementations should use smooth surrogates
/// ([`Expr::softplus`]-based) when `smoothing > 0` and the exact
/// piecewise forms when `smoothing == 0`. The augmented-Lagrangian driver
/// anneals the temperature toward zero across its outer iterations and
/// evaluates all *reported* quantities at zero.
pub trait ConstrainedProblem {
    /// Number of decision variables.
    fn dim(&self) -> usize;

    /// Builds the objective and constraints at `x` on graph `g`.
    fn build<'g>(&self, g: &'g Graph, x: &[Expr<'g>], smoothing: f64) -> ProblemExprs<'g>;

    /// A starting point (need not be feasible).
    fn initial_point(&self) -> Vec<f64>;

    /// The constraint system as sparse linear rows, when *every*
    /// constraint is linear in `x`. Solvers that see `Some` evaluate
    /// constraints and penalty gradients in plain `f64` from these rows
    /// and the objective through [`ConstrainedProblem::objective`],
    /// never building on a tape. Implementations must keep row order
    /// identical to the expression order of
    /// [`ConstrainedProblem::build`].
    fn linear_constraints(&self) -> Option<LinearConstraints> {
        None
    }

    /// The objective at `x`; when `grad` is given, its gradient is
    /// written there (every entry overwritten). Used together with
    /// [`ConstrainedProblem::linear_constraints`].
    ///
    /// The default builds the problem on a fresh tape — correct, but it
    /// allocates the arena and records every constraint node on each
    /// call. Implementations override it with a hand-written kernel that
    /// must return the same bits as the default, value and every
    /// gradient entry, so that the solver's iterates do not depend on
    /// which of the two ran; [`ConstrainedProblem::build`] stays the
    /// reference the kernel is tested against.
    fn objective(&self, x: &[f64], smoothing: f64, grad: Option<&mut [f64]>) -> f64 {
        let g = Graph::new();
        let xs: Vec<Expr<'_>> = x.iter().map(|&v| g.input(v)).collect();
        let objective = self.build(&g, &xs, smoothing).objective;
        if let Some(grad) = grad {
            g.gradient_wrt(objective, &xs, grad);
        }
        objective.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal problem used to exercise the trait object path:
    /// min (x₀−1)², no constraints.
    struct Paraboloid;

    impl ConstrainedProblem for Paraboloid {
        fn dim(&self) -> usize {
            1
        }
        fn build<'g>(&self, _g: &'g Graph, x: &[Expr<'g>], _s: f64) -> ProblemExprs<'g> {
            ProblemExprs {
                objective: (x[0] - 1.0).sqr(),
                inequalities: vec![],
                equalities: vec![],
            }
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![0.0]
        }
    }

    #[test]
    fn trait_is_object_safe_and_buildable() {
        let p: &dyn ConstrainedProblem = &Paraboloid;
        let g = Graph::new();
        let xs = vec![g.input(2.0)];
        let exprs = p.build(&g, &xs, 0.0);
        assert_eq!(exprs.objective.value(), 1.0);
        assert!(exprs.inequalities.is_empty());
        let mut grad = [0.0];
        assert_eq!(p.objective(&[2.0], 0.0, Some(&mut grad)), 1.0);
        assert_eq!(grad, [2.0]);
        assert_eq!(p.objective(&[2.0], 0.0, None), 1.0);
    }
}
