//! The constrained-problem interface consumed by [`crate::auglag`].

/// Sparse rows of linear functions `g_i(x) = Σ_k c_k · x[col_k] + b_i`
/// in CSR layout: row `i`'s terms live at `offsets[i]..offsets[i+1]`.
///
/// Every constraint of a [`ConstrainedProblem`] is such a row: the
/// augmented Lagrangian evaluates constraint values and penalty
/// gradients directly from them in plain `f64` (the coefficient of a
/// linear function *is* its gradient).
#[derive(Debug, Clone)]
pub struct SparseLinear {
    offsets: Vec<u32>,
    cols: Vec<u32>,
    coeffs: Vec<f64>,
    bias: Vec<f64>,
}

impl Default for SparseLinear {
    /// An empty row set, as [`SparseLinear::new`] makes it.
    fn default() -> Self {
        SparseLinear::new()
    }
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

/// The constraint system of a [`ConstrainedProblem`]: `ineq` rows
/// feasible iff `≤ 0`, `eq` rows feasible iff `= 0`. The row order is the
/// multiplier order: [`crate::auglag::solve_seeded`]'s `nu0` seed and
/// the result's `nu` and `lambda` are indexed by it.
#[derive(Debug, Clone, Default)]
pub struct LinearConstraints {
    /// Inequality rows (`≤ 0`).
    pub ineq: SparseLinear,
    /// Equality rows (`= 0`).
    pub eq: SparseLinear,
}

/// A smooth minimization problem under linear constraints: an objective
/// kernel and the sparse rows of its constraints.
///
/// `smoothing` is a temperature for piecewise operations (`max`, `clamp`):
/// implementations should use smooth surrogates (see
/// [`crate::tape::softplus`]) when `smoothing > 0` and the exact
/// piecewise forms when `smoothing == 0`. The augmented-Lagrangian driver
/// anneals the temperature toward zero across its outer iterations and
/// evaluates all *reported* quantities at zero.
pub trait ConstrainedProblem {
    /// Number of decision variables.
    fn dim(&self) -> usize;

    /// A starting point (need not be feasible).
    fn initial_point(&self) -> Vec<f64>;

    /// The constraint rows, built once when the problem is.
    fn constraints(&self) -> &LinearConstraints;

    /// The objective at `x`; when `grad` is given, its gradient is
    /// written there (every entry overwritten).
    fn objective(&self, x: &[f64], smoothing: f64, grad: Option<&mut [f64]>) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// min (x₀−1)² subject to x₀ ≤ 3.
    struct Paraboloid(LinearConstraints);

    impl ConstrainedProblem for Paraboloid {
        fn dim(&self) -> usize {
            1
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![0.0]
        }
        fn constraints(&self) -> &LinearConstraints {
            &self.0
        }
        fn objective(&self, x: &[f64], _s: f64, grad: Option<&mut [f64]>) -> f64 {
            if let Some(grad) = grad {
                grad[0] = 2.0 * (x[0] - 1.0);
            }
            (x[0] - 1.0) * (x[0] - 1.0)
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut lc = LinearConstraints::default();
        lc.ineq.push_row(&[(0, 1.0)], -3.0);
        let p: &dyn ConstrainedProblem = &Paraboloid(lc);
        let rows = p.constraints();
        assert_eq!((rows.ineq.rows(), rows.eq.rows()), (1, 0));
        // A default row set takes rows like a new one.
        let values: Vec<f64> = rows.ineq.iter().map(|row| row.value(&[2.0])).collect();
        assert_eq!(values, [-1.0]);
        let mut grad = [0.0];
        assert_eq!(p.objective(&[2.0], 0.0, Some(&mut grad)), 1.0);
        assert_eq!(grad, [2.0]);
        assert_eq!(p.objective(&[2.0], 0.0, None), 1.0);
    }
}
