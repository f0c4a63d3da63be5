//! Tape-based reverse-mode automatic differentiation: the readable
//! statement each hand-written objective kernel is tested against.
//!
//! An objective is stated on a fresh expression graph; values are eager,
//! the tape only records local partial derivatives, and a single reverse
//! sweep yields the gradient with respect to every input at `O(#nodes)`
//! cost. This is the textbook "tape" design: flat arena, two-parent
//! nodes, no graph reuse. The solver never evaluates on it: a problem
//! hands [`crate::auglag`] an `f64` kernel
//! ([`crate::problem::ConstrainedProblem::objective`]), and the kernel's
//! tests check it bit for bit against the tape statement of the same
//! objective. The scalar helpers [`relu`] and [`softplus`] are shared by
//! the tape's ops and those kernels.
//!
//! ```
//! use acs_opt::tape::Graph;
//!
//! let g = Graph::new();
//! let x = g.input(3.0);
//! let y = g.input(2.0);
//! let f = (x * y + x.sqr()) * y; // f = (xy + x²)·y
//! let grad = g.gradient(f);
//! assert_eq!(grad.wrt(x), (2.0 + 2.0 * 3.0) * 2.0); // (y + 2x)·y
//! assert_eq!(grad.wrt(y), 2.0 * 3.0 * 2.0 + 3.0 * 3.0); // 2xy + x²
//! ```

use std::cell::RefCell;
use std::ops::{Add, Div, Mul, Neg, Sub};

#[derive(Debug, Clone, Copy)]
struct Node {
    parents: [u32; 2],
    partials: [f64; 2],
}

#[derive(Debug, Default)]
struct TapeInner {
    nodes: Vec<Node>,
}

impl TapeInner {
    fn push(&mut self, parents: [u32; 2], partials: [f64; 2]) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { parents, partials });
        idx
    }
}

/// An expression graph / AD tape.
///
/// Create leaves with [`Graph::input`] (differentiable) or
/// [`Graph::constant`], combine them with the overloaded operators and
/// methods on [`Expr`], then call [`Graph::gradient`].
#[derive(Debug, Default)]
pub struct Graph {
    inner: RefCell<TapeInner>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// `true` when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A differentiable leaf with the given value.
    pub fn input(&self, value: f64) -> Expr<'_> {
        let idx = self
            .inner
            .borrow_mut()
            .push([u32::MAX, u32::MAX], [0.0, 0.0]);
        Expr {
            graph: self,
            idx,
            val: value,
        }
    }

    /// A constant leaf. Identical to [`Graph::input`] for evaluation; the
    /// distinction is documentation only (gradients w.r.t. constants are
    /// simply never read).
    pub fn constant(&self, value: f64) -> Expr<'_> {
        self.input(value)
    }

    /// Computes `d output / d node` for every node by one reverse sweep.
    pub fn gradient(&self, output: Expr<'_>) -> Gradient {
        debug_assert!(std::ptr::eq(output.graph, self), "expr from another graph");
        let tape = self.inner.borrow();
        let n = tape.nodes.len();
        let mut adjoint = vec![0.0f64; n];
        adjoint[output.idx as usize] = 1.0;
        for i in (0..n).rev() {
            let a = adjoint[i];
            if a == 0.0 {
                continue;
            }
            let node = tape.nodes[i];
            for p in 0..2 {
                let parent = node.parents[p];
                if parent != u32::MAX {
                    adjoint[parent as usize] += a * node.partials[p];
                }
            }
        }
        Gradient { adjoint }
    }

    fn unary(&self, a: Expr<'_>, value: f64, partial: f64) -> Expr<'_> {
        let idx = self
            .inner
            .borrow_mut()
            .push([a.idx, u32::MAX], [partial, 0.0]);
        Expr {
            graph: self,
            idx,
            val: value,
        }
    }

    fn binary(&self, a: Expr<'_>, b: Expr<'_>, value: f64, pa: f64, pb: f64) -> Expr<'_> {
        debug_assert!(
            std::ptr::eq(a.graph, b.graph),
            "exprs from different graphs"
        );
        let idx = self.inner.borrow_mut().push([a.idx, b.idx], [pa, pb]);
        Expr {
            graph: self,
            idx,
            val: value,
        }
    }
}

/// Value and slope of `max(v, 0)`, the slope 0 at the kink: the
/// arithmetic of [`Expr::relu`], shared with hand-written kernels like
/// [`softplus`].
pub fn relu(v: f64) -> (f64, f64) {
    if v > 0.0 {
        (v, 1.0)
    } else {
        (0.0, 0.0)
    }
}

/// From this `x = v/τ` up, the formula in [`softplus`] is exactly
/// `(τ·x, 1)`: `t = e^{−x} ≤ e^{−40} < 2⁻⁵³` rounds away in the slope's
/// `1 + t`, and in `x + ln_1p(t)` because `ln_1p(t) ≈ t < 2⁻⁴⁸ ≤ ulp(x)/2`.
const SOFTPLUS_LINEAR_FROM: f64 = 40.0;

/// From this `x = v/τ` down, it is exactly `(τ·0, 0)`: `e^{x}` underflows
/// to +0 below `ln 2⁻¹⁰⁷⁵ ≈ −745.13`, and `ln_1p(+0) = +0`.
const SOFTPLUS_ZERO_TO: f64 = -746.0;

/// Value and slope of `τ·ln(1 + e^{v/τ})` at `v`: the arithmetic of
/// [`Expr::softplus`], exposed so hand-written kernels that must match
/// the tape bit for bit share it instead of restating it. In the tails
/// past the two constants above it skips `exp` and `ln_1p`, bit for bit.
pub fn softplus(v: f64, tau: f64) -> (f64, f64) {
    let x = v / tau;
    if x >= SOFTPLUS_LINEAR_FROM {
        return (tau * x, 1.0);
    }
    if x <= SOFTPLUS_ZERO_TO {
        // `τ·0`, not `0`: the formula's sign for any τ.
        return (tau * 0.0, 0.0);
    }
    // Stable: softplus(x) = max(x,0) + ln(1+exp(-|x|)).
    let t = (-x.abs()).exp();
    let val = tau * (x.max(0.0) + t.ln_1p());
    // d/dx τ·softplus(x/τ) = sigmoid(x/τ), from the same exp(-|x|).
    let d = if x >= 0.0 {
        1.0 / (1.0 + t)
    } else {
        t / (1.0 + t)
    };
    (val, d)
}

/// The result of a reverse sweep: adjoints of every node.
#[derive(Debug, Clone)]
pub struct Gradient {
    adjoint: Vec<f64>,
}

impl Gradient {
    /// Derivative of the swept output with respect to `x`.
    pub fn wrt(&self, x: Expr<'_>) -> f64 {
        self.adjoint[x.idx as usize]
    }

    /// Copies the derivatives w.r.t. each listed expression into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` have different lengths.
    pub fn write_wrt(&self, xs: &[Expr<'_>], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len());
        for (o, x) in out.iter_mut().zip(xs) {
            *o = self.adjoint[x.idx as usize];
        }
    }
}

/// A handle to a node of a [`Graph`]. Cheap to copy; combine with `+ - * /`
/// and the methods below. Values are computed eagerly, so [`Expr::value`]
/// is free.
#[derive(Clone, Copy)]
pub struct Expr<'g> {
    graph: &'g Graph,
    idx: u32,
    /// Values are eager; caching the node's value in the handle makes
    /// [`Expr::value`] and every operand read borrow-free.
    val: f64,
}

impl std::fmt::Debug for Expr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Expr(#{} = {})", self.idx, self.value())
    }
}

impl<'g> Expr<'g> {
    /// Current value of this node.
    pub fn value(self) -> f64 {
        self.val
    }

    /// `self²`.
    pub fn sqr(self) -> Expr<'g> {
        let v = self.value();
        self.graph.unary(self, v * v, 2.0 * v)
    }

    /// Exact `max(self, 0)` with the convention that the derivative at the
    /// kink is 0. Continuous, piecewise-smooth; safe inside augmented
    /// Lagrangian penalty terms, which square it.
    pub fn relu(self) -> Expr<'g> {
        let (val, d) = relu(self.value());
        self.graph.unary(self, val, d)
    }

    /// Exact `max(self, other)`; at ties the derivative follows `self`.
    pub fn max_exact(self, other: Expr<'g>) -> Expr<'g> {
        let (a, b) = (self.value(), other.value());
        if a >= b {
            self.graph.binary(self, other, a, 1.0, 0.0)
        } else {
            self.graph.binary(self, other, b, 0.0, 1.0)
        }
    }

    /// Exact `min(self, other)`; at ties the derivative follows `self`.
    pub fn min_exact(self, other: Expr<'g>) -> Expr<'g> {
        let (a, b) = (self.value(), other.value());
        if a <= b {
            self.graph.binary(self, other, a, 1.0, 0.0)
        } else {
            self.graph.binary(self, other, b, 0.0, 1.0)
        }
    }

    /// Numerically stable softplus with temperature `tau`:
    /// `τ·ln(1 + e^{x/τ})`. Smooth overestimate of `max(x, 0)`;
    /// approaches it as `τ → 0`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive.
    pub fn softplus(self, tau: f64) -> Expr<'g> {
        assert!(tau > 0.0, "softplus temperature must be positive");
        let (val, d) = softplus(self.value(), tau);
        self.graph.unary(self, val, d)
    }

    /// Smooth `max(self, other)` via `other + softplus(self − other)`.
    /// Upper-bounds the exact max; error `≤ τ·ln 2`.
    pub fn smooth_max(self, other: Expr<'g>, tau: f64) -> Expr<'g> {
        other + (self - other).softplus(tau)
    }

    /// A custom differentiable unary op: the caller supplies the output
    /// value and the local derivative `d out / d self`. Used for the
    /// voltage inversion `V(f)` of non-linear frequency laws, where the
    /// derivative comes from the implicit-function rule.
    pub fn custom_unary(self, value: f64, partial: f64) -> Expr<'g> {
        self.graph.unary(self, value, partial)
    }
}

// ---- operator overloads -----------------------------------------------------

impl<'g> Add for Expr<'g> {
    type Output = Expr<'g>;
    fn add(self, rhs: Expr<'g>) -> Expr<'g> {
        self.graph
            .binary(self, rhs, self.value() + rhs.value(), 1.0, 1.0)
    }
}

impl<'g> Sub for Expr<'g> {
    type Output = Expr<'g>;
    fn sub(self, rhs: Expr<'g>) -> Expr<'g> {
        self.graph
            .binary(self, rhs, self.value() - rhs.value(), 1.0, -1.0)
    }
}

impl<'g> Mul for Expr<'g> {
    type Output = Expr<'g>;
    fn mul(self, rhs: Expr<'g>) -> Expr<'g> {
        let (a, b) = (self.value(), rhs.value());
        self.graph.binary(self, rhs, a * b, b, a)
    }
}

impl<'g> Div for Expr<'g> {
    type Output = Expr<'g>;
    fn div(self, rhs: Expr<'g>) -> Expr<'g> {
        let (a, b) = (self.value(), rhs.value());
        self.graph.binary(self, rhs, a / b, 1.0 / b, -a / (b * b))
    }
}

impl<'g> Neg for Expr<'g> {
    type Output = Expr<'g>;
    fn neg(self) -> Expr<'g> {
        self.graph.unary(self, -self.value(), -1.0)
    }
}

impl<'g> Add<f64> for Expr<'g> {
    type Output = Expr<'g>;
    fn add(self, rhs: f64) -> Expr<'g> {
        self.graph.unary(self, self.value() + rhs, 1.0)
    }
}

impl<'g> Add<Expr<'g>> for f64 {
    type Output = Expr<'g>;
    fn add(self, rhs: Expr<'g>) -> Expr<'g> {
        rhs + self
    }
}

impl<'g> Sub<f64> for Expr<'g> {
    type Output = Expr<'g>;
    fn sub(self, rhs: f64) -> Expr<'g> {
        self.graph.unary(self, self.value() - rhs, 1.0)
    }
}

impl<'g> Sub<Expr<'g>> for f64 {
    type Output = Expr<'g>;
    fn sub(self, rhs: Expr<'g>) -> Expr<'g> {
        rhs.graph.unary(rhs, self - rhs.value(), -1.0)
    }
}

impl<'g> Mul<f64> for Expr<'g> {
    type Output = Expr<'g>;
    fn mul(self, rhs: f64) -> Expr<'g> {
        self.graph.unary(self, self.value() * rhs, rhs)
    }
}

impl<'g> Mul<Expr<'g>> for f64 {
    type Output = Expr<'g>;
    fn mul(self, rhs: Expr<'g>) -> Expr<'g> {
        rhs * self
    }
}

impl<'g> Div<f64> for Expr<'g> {
    type Output = Expr<'g>;
    fn div(self, rhs: f64) -> Expr<'g> {
        self.graph.unary(self, self.value() / rhs, 1.0 / rhs)
    }
}

impl<'g> Div<Expr<'g>> for f64 {
    type Output = Expr<'g>;
    fn div(self, rhs: Expr<'g>) -> Expr<'g> {
        let b = rhs.value();
        rhs.graph.unary(rhs, self / b, -self / (b * b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic_values() {
        let g = Graph::new();
        let x = g.input(3.0);
        let y = g.input(4.0);
        assert_eq!((x + y).value(), 7.0);
        assert_eq!((x - y).value(), -1.0);
        assert_eq!((x * y).value(), 12.0);
        assert_eq!((x / y).value(), 0.75);
        assert_eq!((-x).value(), -3.0);
        assert_eq!((x + 1.0).value(), 4.0);
        assert_eq!((1.0 + x).value(), 4.0);
        assert_eq!((x - 1.0).value(), 2.0);
        assert_eq!((1.0 - x).value(), -2.0);
        assert_eq!((x * 2.0).value(), 6.0);
        assert_eq!((2.0 * x).value(), 6.0);
        assert_eq!((x / 2.0).value(), 1.5);
        assert_eq!((12.0 / x).value(), 4.0);
    }

    #[test]
    fn polynomial_gradient() {
        let g = Graph::new();
        let x = g.input(2.0);
        let y = g.input(-1.0);
        // f = x³y + 2x − y²
        let f = x.sqr() * x * y + 2.0 * x - y.sqr();
        assert_eq!(f.value(), -8.0 + 4.0 - 1.0);
        let grad = g.gradient(f);
        assert!((grad.wrt(x) - (-3.0 * 4.0 + 2.0)).abs() < 1e-12);
        assert!((grad.wrt(y) - (8.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        let g = Graph::new();
        let x = g.input(2.0);
        let s = x * x; // used twice
        let f = s + s;
        let grad = g.gradient(f);
        assert_eq!(grad.wrt(x), 8.0);
    }

    #[test]
    fn relu_and_exact_max_min() {
        let g = Graph::new();
        let x = g.input(-2.0);
        let y = g.input(3.0);
        assert_eq!(x.relu().value(), 0.0);
        assert_eq!(y.relu().value(), 3.0);
        assert_eq!(x.max_exact(y).value(), 3.0);
        assert_eq!(x.min_exact(y).value(), -2.0);
        let f = x.max_exact(y) * 2.0;
        let grad = g.gradient(f);
        assert_eq!(grad.wrt(x), 0.0);
        assert_eq!(grad.wrt(y), 2.0);
    }

    #[test]
    fn softplus_limits_and_derivative() {
        let g = Graph::new();
        // Large positive -> ~x; large negative -> ~0.
        let x = g.input(50.0);
        assert!((x.softplus(0.1).value() - 50.0).abs() < 1e-9);
        let y = g.input(-50.0);
        assert!(y.softplus(0.1).value().abs() < 1e-9);
        // Derivative is sigmoid.
        let z = g.input(0.0);
        let s = z.softplus(2.0);
        let grad = g.gradient(s);
        assert!((grad.wrt(z) - 0.5).abs() < 1e-12);
        // No overflow for extreme inputs.
        let w = g.input(1e6);
        assert!(w.softplus(1e-3).value().is_finite());
    }

    /// [`softplus`] without its saturated tails: the formula alone.
    fn softplus_reference(v: f64, tau: f64) -> (f64, f64) {
        let x = v / tau;
        let t = (-x.abs()).exp();
        let val = tau * (x.max(0.0) + t.ln_1p());
        let d = if x >= 0.0 {
            1.0 / (1.0 + t)
        } else {
            t / (1.0 + t)
        };
        (val, d)
    }

    /// The saturated tails are the only thing that can make tape and
    /// kernels wrong together, so this pins them against the formula.
    #[test]
    fn softplus_saturation_is_bit_exact() {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        // Inputs seen per branch: linear tail, zero tail, formula.
        let mut hits = [0usize; 3];
        let mut check = |v: f64, tau: f64| {
            let (got, want) = (softplus(v, tau), softplus_reference(v, tau));
            assert!(
                same(got.0, want.0) && same(got.1, want.1),
                "softplus({v:e}, {tau:e}) = {got:?}, formula {want:?}"
            );
            let x = v / tau;
            hits[if x >= SOFTPLUS_LINEAR_FROM {
                0
            } else if x <= SOFTPLUS_ZERO_TO {
                1
            } else {
                2
            }] += 1;
        };

        // Dense sweeps of x across both thresholds, plus each threshold
        // and its neighbouring floats (exactly so at τ = 1).
        for tau in [1.0, 1e-2, 1e-7] {
            for (lo, hi) in [(36.0, 41.0), (744.0, 748.0)] {
                let n = 50_000;
                for i in 0..=n {
                    let x = lo + (hi - lo) * f64::from(i) / f64::from(n);
                    check(x * tau, tau);
                    check(-x * tau, tau);
                }
            }
            for e in [SOFTPLUS_LINEAR_FROM, SOFTPLUS_ZERO_TO] {
                for x in [e.next_down(), e, e.next_up()] {
                    check(x * tau, tau);
                }
            }
        }

        // Log-uniform |v| over 24 decades, spread by a golden-ratio
        // sequence, at every temperature of the synthesis annealing
        // ladder (1e-2 · 0.15ᵏ, floored at 1e-7).
        let ladder = std::iter::successors(Some(1e-2_f64), |&t| {
            (t > 1e-7).then(|| (t * 0.15).max(1e-7))
        });
        let step = (5f64.sqrt() - 1.0) / 2.0;
        for tau in ladder {
            for i in 0..1u32 << 16 {
                let decade = -12.0 + 24.0 * (f64::from(i) * step).fract();
                let v = 10f64.powf(decade);
                check(v, tau);
                check(-v, tau);
            }
        }

        // Special values, as v and as τ.
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            -f64::MAX,
            1.0,
            1e-7,
        ];
        for v in specials {
            for tau in specials {
                check(v, tau);
            }
        }

        assert!(hits.iter().all(|&n| n > 0), "branch hits {hits:?}");
    }

    #[test]
    fn smooth_max_upper_bounds_and_converges() {
        let g = Graph::new();
        let a = g.input(1.0);
        let b = g.input(1.2);
        for tau in [1.0, 0.1, 1e-3] {
            let m = a.smooth_max(b, tau).value();
            assert!(m >= 1.2 - 1e-12);
            assert!(m <= 1.2 + tau * (2.0f64).ln() + 1e-12);
        }
    }

    #[test]
    fn custom_unary_propagates_partial() {
        let g = Graph::new();
        let x = g.input(4.0);
        // Pretend op: y = x², partial 2x supplied by hand.
        let y = x.custom_unary(16.0, 8.0);
        let f = y * 3.0;
        let grad = g.gradient(f);
        assert_eq!(grad.wrt(x), 24.0);
    }

    #[test]
    fn write_wrt_bulk() {
        let g = Graph::new();
        let xs: Vec<_> = (0..4).map(|i| g.input(i as f64 + 1.0)).collect();
        let mut f = g.constant(0.0);
        for &x in &xs {
            f = f + x.sqr();
        }
        let grad = g.gradient(f);
        let mut out = vec![0.0; 4];
        grad.write_wrt(&xs, &mut out);
        assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn graph_len_tracks_nodes() {
        let g = Graph::new();
        assert!(g.is_empty());
        let x = g.input(1.0);
        let _ = x + x;
        assert_eq!(g.len(), 2);
    }
}
