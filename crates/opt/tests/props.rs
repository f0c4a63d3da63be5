//! Property-based tests for the autodiff tape and the optimizers.

use acs_opt::numgrad::finite_difference_gradient;
use acs_opt::tape::Graph;
use acs_opt::{lbfgs, LbfgsConfig};
use proptest::prelude::*;

proptest! {
    /// AD gradients of a random rational/softplus composite agree with
    /// central finite differences.
    #[test]
    fn tape_gradient_matches_finite_difference(
        a in 0.1f64..3.0,
        b in 0.1f64..3.0,
        c in 0.1f64..3.0,
        k in -2.0f64..2.0,
    ) {
        let eval = |x: &[f64]| {
            let g = Graph::new();
            let (xa, xb, xc) = (g.input(x[0]), g.input(x[1]), g.input(x[2]));
            let f = (xa * xb + k) * (xc - 1.0).softplus(0.7)
                + (xa / xc).sqr()
                + (xb * 0.3 - xc).softplus(0.2);
            f.value()
        };
        let x = [a, b, c];
        let g = Graph::new();
        let (xa, xb, xc) = (g.input(x[0]), g.input(x[1]), g.input(x[2]));
        let f = (xa * xb + k) * (xc - 1.0).softplus(0.7)
                + (xa / xc).sqr()
                + (xb * 0.3 - xc).softplus(0.2);
        let grads = g.gradient(f);
        let analytic = [grads.wrt(xa), grads.wrt(xb), grads.wrt(xc)];
        let fd = finite_difference_gradient(eval, &x, 1e-6);
        for (i, (an, nd)) in analytic.iter().zip(&fd).enumerate() {
            let scale = an.abs().max(nd.abs()).max(1.0);
            prop_assert!((an - nd).abs() < 1e-4 * scale,
                "coord {i}: {an} vs {nd}");
        }
    }

    /// softplus is a smooth upper bound of relu that tightens as τ → 0.
    #[test]
    fn softplus_bounds_relu(x in -50.0f64..50.0, tau_exp in -3i32..0) {
        let tau = 10f64.powi(tau_exp);
        let g = Graph::new();
        let v = g.input(x);
        let sp = v.softplus(tau).value();
        let relu = x.max(0.0);
        prop_assert!(sp >= relu - 1e-12);
        prop_assert!(sp <= relu + tau * (2f64).ln() + 1e-12);
    }

    /// L-BFGS minimizes random positive-definite quadratics to the known
    /// optimum.
    #[test]
    fn lbfgs_solves_random_quadratics(
        diag in prop::collection::vec(0.1f64..100.0, 2..8),
        shift in prop::collection::vec(-5.0f64..5.0, 2..8),
    ) {
        let n = diag.len().min(shift.len());
        let d = &diag[..n];
        let s = &shift[..n];
        let f = |x: &[f64], g: &mut [f64]| {
            let mut v = 0.0;
            for i in 0..n {
                let e = x[i] - s[i];
                v += d[i] * e * e;
                g[i] = 2.0 * d[i] * e;
            }
            v
        };
        let r = lbfgs::minimize(f, &vec![0.0; n], &LbfgsConfig::default());
        for (i, (xi, si)) in r.x.iter().zip(s).enumerate() {
            prop_assert!((xi - si).abs() < 1e-4, "coord {i}: {xi} vs {si}");
        }
    }

    /// Gradients accumulate correctly through heavily shared
    /// subexpressions (fan-out stress).
    #[test]
    fn shared_subexpression_fanout(x0 in 0.5f64..2.0, reps in 1usize..30) {
        let g = Graph::new();
        let x = g.input(x0);
        let shared = x.sqr(); // d/dx = 2x
        let mut f = g.constant(0.0);
        for _ in 0..reps {
            f = f + shared;
        }
        let grads = g.gradient(f);
        prop_assert!((grads.wrt(x) - 2.0 * x0 * reps as f64).abs() < 1e-9);
    }
}
