//! Augmented-Lagrangian (PHR) solver for smooth constrained problems.
//!
//! Classic Powell–Hestenes–Rockafellar scheme: the constrained problem
//!
//! ```text
//! min f(x)   s.t.  g_i(x) ≤ 0,  h_j(x) = 0
//! ```
//!
//! is solved as a sequence of unconstrained minimizations of
//!
//! ```text
//! L(x) = f + Σ_j [λ_j h_j + μ/2 h_j²]
//!          + 1/(2μ) Σ_i [max(0, ν_i + μ g_i)² − ν_i²]
//! ```
//!
//! with multiplier updates `λ_j += μ h_j`, `ν_i = max(0, ν_i + μ g_i)`
//! and a penalty bump whenever feasibility stalls. The inner solver is
//! [`crate::lbfgs`]. Everything is evaluated in plain `f64`: the
//! objective through [`ConstrainedProblem::objective`] and the penalties
//! from the problem's sparse constraint rows. For
//! `P = (max(0, μg+ν)² − ν²)/2μ` the chain rule gives
//! `∂P/∂x = max(0, μg+ν)·∇g`, and `∇g` is the row's constant
//! coefficients.
//!
//! An inactive inequality row (`t = max(μ g_i + ν_i, 0)` is zero) adds
//! `(0.0 − ν_i·ν_i) / (2μ)` and nothing to the gradient. That term
//! depends on ν and μ alone, which change only between outer
//! iterations, so it is computed once per outer iteration into an
//! `idle` vector and each evaluation adds `idle[i]` without a
//! division. It is the formula's own value: `t` is never NaN (`max`
//! returns the non-NaN operand) and `t·t` is `+0.0` for either zero, so
//! the merit and every gradient entry keep their bits. Writing it as
//! `−ν²/(2μ)` would not: at ν = 0 that is `−0.0`.

use crate::lbfgs::{self, LbfgsConfig, LbfgsStop};
use crate::problem::{ConstrainedProblem, LinearConstraints};

/// Configuration of the outer augmented-Lagrangian loop.
#[derive(Debug, Clone)]
pub struct AugLagConfig {
    /// Maximum outer (multiplier-update) iterations.
    pub outer_iters: usize,
    /// Initial penalty weight μ.
    pub mu_init: f64,
    /// Multiplier applied to μ when feasibility stalls.
    pub mu_growth: f64,
    /// Upper cap on μ.
    pub mu_max: f64,
    /// Declare convergence when the maximum constraint violation falls
    /// below this.
    pub violation_tol: f64,
    /// Required per-outer-iteration violation shrink factor; slower
    /// progress bumps μ.
    pub violation_shrink: f64,
    /// Initial smoothing temperature handed to the problem's `objective`.
    pub smoothing_init: f64,
    /// Smoothing decays geometrically to (at most) this value.
    pub smoothing_final: f64,
    /// Per-outer-iteration smoothing decay factor.
    pub smoothing_decay: f64,
    /// Inner L-BFGS configuration.
    pub inner: LbfgsConfig,
}

impl Default for AugLagConfig {
    fn default() -> Self {
        AugLagConfig {
            outer_iters: 30,
            mu_init: 10.0,
            mu_growth: 10.0,
            mu_max: 1e10,
            violation_tol: 1e-6,
            violation_shrink: 0.25,
            smoothing_init: 1e-2,
            smoothing_final: 1e-7,
            smoothing_decay: 0.2,
            inner: LbfgsConfig::default(),
        }
    }
}

/// One row of the outer-iteration log.
#[derive(Debug, Clone, Copy)]
pub struct OuterLog {
    /// Objective (exact, unsmoothed) after this outer iteration.
    pub objective: f64,
    /// Maximum constraint violation after this outer iteration.
    pub violation: f64,
    /// Penalty weight used.
    pub mu: f64,
    /// Smoothing temperature used.
    pub smoothing: f64,
    /// Inner iterations consumed.
    pub inner_iterations: usize,
}

/// Result of [`solve`].
#[derive(Debug, Clone)]
pub struct AugLagResult {
    /// Final point.
    pub x: Vec<f64>,
    /// Exact objective at `x` (smoothing = 0).
    pub objective: f64,
    /// Maximum constraint violation at `x` (exact).
    pub max_violation: f64,
    /// `true` when `max_violation ≤ violation_tol`.
    pub converged: bool,
    /// Outer iterations executed.
    pub outer_iterations: usize,
    /// Total objective/gradient evaluations across all inner solves.
    pub evaluations: usize,
    /// Per-outer-iteration telemetry.
    pub history: Vec<OuterLog>,
    /// Inequality multipliers ν at termination, one per inequality row
    /// in row order. Feed these back into [`solve_seeded`] to warm-start
    /// a *related* solve (e.g. the next boundary of an online
    /// re-optimization) past its multiplier-estimation phase.
    pub nu: Vec<f64>,
    /// Equality multipliers λ at termination, one per equality row in
    /// row order.
    pub lambda: Vec<f64>,
}

/// Exact (unsmoothed) objective and violation at `x`; the row values
/// land in `ineq`/`eq`.
fn measure(
    problem: &dyn ConstrainedProblem,
    x: &[f64],
    ineq: &mut Vec<f64>,
    eq: &mut Vec<f64>,
) -> (f64, f64) {
    let obj = problem.objective(x, 0.0, None);
    let lc = problem.constraints();
    ineq.clear();
    ineq.extend(lc.ineq.iter().map(|row| row.value(x)));
    eq.clear();
    eq.extend(lc.eq.iter().map(|row| row.value(x)));
    let viol = ineq
        .iter()
        .map(|&v| v.max(0.0))
        .chain(eq.iter().map(|&v| v.abs()))
        .fold(0.0f64, f64::max);
    (obj, viol)
}

/// The PHR multipliers and penalty weight of one inner solve, with the
/// inactive-row terms `idle[i] = (0.0 − ν_i·ν_i) / (2μ)` of that ν and
/// μ (filled by [`Phr::new`]).
struct Phr<'a> {
    lambda: &'a [f64],
    nu: &'a [f64],
    idle: &'a [f64],
    mu: f64,
}

impl<'a> Phr<'a> {
    /// Fills `idle` (one slot per inequality row) for `nu` and `mu`.
    fn new(lambda: &'a [f64], nu: &'a [f64], mu: f64, idle: &'a mut [f64]) -> Self {
        for (term, &nui) in idle.iter_mut().zip(nu) {
            *term = (0.0 - nui * nui) / (2.0 * mu);
        }
        Phr {
            lambda,
            nu,
            idle,
            mu,
        }
    }

    /// Adds the penalty terms of the rows of `lc` at `x` onto `merit`
    /// (the objective's value) and returns the sum; the penalty
    /// gradients go into `grad` (the objective's gradient). Each row is
    /// read once; an inactive inequality row adds its `idle` term and
    /// touches no gradient entry.
    //
    // Out of line on purpose: inlined into the merit closure, `merit`
    // lived in a stack slot and every row waited on a store-to-load round
    // trip; out of line the sum stays in a register, and the pass took
    // about half the time (docs/PERF.md, "The penalty pass").
    #[inline(never)]
    fn add_linear(&self, lc: &LinearConstraints, x: &[f64], grad: &mut [f64], merit: f64) -> f64 {
        let (mu, mut merit) = (self.mu, merit);
        for (row, &lam) in lc.eq.iter().zip(self.lambda) {
            let h = row.value(x);
            merit += lam * h + (mu / 2.0) * h * h;
            row.add_scaled_to(lam + mu * h, grad);
        }
        for ((row, &nui), &idle) in lc.ineq.iter().zip(self.nu).zip(self.idle) {
            let t = (row.value(x) * mu + nui).max(0.0);
            if t > 0.0 {
                merit += (t * t - nui * nui) / (2.0 * mu);
                row.add_scaled_to(t, grad);
            } else {
                merit += idle;
            }
        }
        merit
    }
}

/// Solves a constrained problem with the PHR augmented Lagrangian.
///
/// Always returns the best point seen; inspect
/// [`AugLagResult::converged`] / [`AugLagResult::max_violation`] before
/// trusting it as feasible.
pub fn solve(problem: &dyn ConstrainedProblem, config: &AugLagConfig) -> AugLagResult {
    solve_seeded(problem, config, None)
}

/// [`solve`] with warm-started inequality multipliers.
///
/// `nu0` seeds the PHR inequality multipliers in row order (entries
/// are clamped to `≥ 0`; missing entries default to `0`, extras are
/// ignored). When the seed comes from a structurally similar solve —
/// the previous boundary of an online re-optimization, say — the first
/// outer iteration already penalizes the right active set, which is
/// most of what the outer loop spends its iterations discovering.
/// Seeding changes the iterate trajectory, never the contract: the
/// result is still the best point seen under the exact measurements.
pub fn solve_seeded(
    problem: &dyn ConstrainedProblem,
    config: &AugLagConfig,
    nu0: Option<&[f64]>,
) -> AugLagResult {
    let n = problem.dim();
    let mut x = problem.initial_point();
    assert_eq!(x.len(), n, "initial point dimension mismatch");
    let lc = problem.constraints();
    let (num_ineq, num_eq) = (lc.ineq.rows(), lc.eq.rows());
    let mut ineq: Vec<f64> = Vec::new();
    let mut eq: Vec<f64> = Vec::new();

    let mut nu = vec![0.0f64; num_ineq]; // inequality multipliers ≥ 0
    if let Some(seed) = nu0 {
        for (d, &s) in nu.iter_mut().zip(seed) {
            *d = s.max(0.0);
        }
    }
    let mut lambda = vec![0.0f64; num_eq]; // equality multipliers

    // Inactive-row penalty terms, refilled once per outer iteration.
    let mut idle = vec![0.0f64; num_ineq];
    let mut mu = config.mu_init;
    let mut smoothing = config.smoothing_init;
    let mut evaluations = 0usize;
    let mut history = Vec::new();
    let mut prev_violation = f64::INFINITY;

    let mut best_x = x.clone();
    let (mut best_obj, mut best_viol) = measure(problem, &x, &mut ineq, &mut eq);

    let mut outer_done = 0usize;
    for _outer in 0..config.outer_iters {
        outer_done += 1;
        // ---- inner minimization of the merit function ----
        let phr = Phr::new(&lambda, &nu, mu, &mut idle);
        let merit = |xv: &[f64], grad: &mut [f64]| -> f64 {
            let objective = problem.objective(xv, smoothing, Some(grad));
            phr.add_linear(lc, xv, grad, objective)
        };
        let inner = lbfgs::minimize(merit, &x, &config.inner);
        evaluations += inner.evaluations;
        if inner.stop != LbfgsStop::NonFiniteStart {
            x = inner.x;
        }

        // ---- exact measurement and multiplier update ----
        let (obj, viol) = measure(problem, &x, &mut ineq, &mut eq);
        history.push(OuterLog {
            objective: obj,
            violation: viol,
            mu,
            smoothing,
            inner_iterations: inner.iterations,
        });

        let better = (viol <= config.violation_tol && obj < best_obj)
            || (best_viol > config.violation_tol && viol < best_viol);
        if better {
            best_x.clone_from(&x);
            best_obj = obj;
            best_viol = viol;
        }

        if viol <= config.violation_tol
            && smoothing <= config.smoothing_final
            && matches!(inner.stop, LbfgsStop::GradTol | LbfgsStop::FTol)
        {
            break;
        }

        for (j, &h) in eq.iter().enumerate() {
            lambda[j] += mu * h;
        }
        for (i, &gi) in ineq.iter().enumerate() {
            nu[i] = (nu[i] + mu * gi).max(0.0);
        }
        if viol > config.violation_shrink * prev_violation && viol > config.violation_tol {
            mu = (mu * config.mu_growth).min(config.mu_max);
        }
        prev_violation = viol;
        smoothing = (smoothing * config.smoothing_decay).max(config.smoothing_final);
    }

    let (obj, viol) = measure(problem, &best_x, &mut ineq, &mut eq);
    AugLagResult {
        x: best_x,
        objective: obj,
        max_violation: viol,
        converged: viol <= config.violation_tol,
        outer_iterations: outer_done,
        evaluations,
        history,
        nu,
        lambda,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SparseLinear;
    use proptest::prelude::*;

    /// A test problem: an objective closure `f(x, τ, grad) → value` that
    /// writes every gradient entry, under `rows`.
    struct Problem<F> {
        x0: Vec<f64>,
        rows: LinearConstraints,
        f: F,
    }

    impl<F: Fn(&[f64], f64, &mut [f64]) -> f64> ConstrainedProblem for Problem<F> {
        fn dim(&self) -> usize {
            self.x0.len()
        }
        fn initial_point(&self) -> Vec<f64> {
            self.x0.clone()
        }
        fn constraints(&self) -> &LinearConstraints {
            &self.rows
        }
        fn objective(&self, x: &[f64], smoothing: f64, grad: Option<&mut [f64]>) -> f64 {
            let mut unused = vec![0.0; x.len()];
            (self.f)(x, smoothing, grad.unwrap_or(&mut unused))
        }
    }

    type Rows<'a> = &'a [(&'a [(usize, f64)], f64)];

    /// The problem min `f` from `x0` under inequality rows `ineq` (`≤ 0`)
    /// and equality rows `eq` (`= 0`), each row given as its terms and
    /// bias.
    fn problem<F: Fn(&[f64], f64, &mut [f64]) -> f64>(
        x0: &[f64],
        ineq: Rows<'_>,
        eq: Rows<'_>,
        f: F,
    ) -> Problem<F> {
        Problem {
            x0: x0.to_vec(),
            rows: LinearConstraints {
                ineq: sparse(ineq),
                eq: sparse(eq),
            },
            f,
        }
    }

    /// `(x₀ − c)²`, the objective of the one-variable problems.
    fn square_from(c: f64) -> impl Fn(&[f64], f64, &mut [f64]) -> f64 {
        move |x: &[f64], _: f64, grad: &mut [f64]| {
            grad[0] = 2.0 * (x[0] - c);
            (x[0] - c) * (x[0] - c)
        }
    }

    /// min x² + y²  s.t.  x + y = 1  →  (0.5, 0.5).
    fn equality_qp_problem() -> impl ConstrainedProblem {
        problem(
            &[0.0, 0.0],
            &[],
            &[(&[(0, 1.0), (1, 1.0)], -1.0)],
            |x: &[f64], _: f64, grad: &mut [f64]| {
                grad[0] = 2.0 * x[0];
                grad[1] = 2.0 * x[1];
                x[0] * x[0] + x[1] * x[1]
            },
        )
    }

    #[test]
    fn equality_qp() {
        let r = solve(&equality_qp_problem(), &AugLagConfig::default());
        assert!(r.converged, "violation = {}", r.max_violation);
        assert!((r.x[0] - 0.5).abs() < 1e-4, "x = {:?}", r.x);
        assert!((r.x[1] - 0.5).abs() < 1e-4);
        assert!((r.objective - 0.5).abs() < 1e-3);
    }

    /// min (x−2)²  s.t.  x ≤ 1  →  x = 1 (active constraint).
    fn active_ineq_problem() -> impl ConstrainedProblem {
        problem(&[5.0], &[(&[(0, 1.0)], -1.0)], &[], square_from(2.0))
    }

    #[test]
    fn active_inequality() {
        let r = solve(&active_ineq_problem(), &AugLagConfig::default());
        assert!(r.converged);
        assert!((r.x[0] - 1.0).abs() < 1e-4, "x = {:?}", r.x);
    }

    #[test]
    fn box_constraint_binds_at_lower() {
        // min (x+1)²  s.t.  0 ≤ x ≤ 2  →  x = 0.
        let p = problem(
            &[1.0],
            &[(&[(0, -1.0)], 0.0), (&[(0, 1.0)], -2.0)],
            &[],
            square_from(-1.0),
        );
        let r = solve(&p, &AugLagConfig::default());
        assert!(r.converged);
        assert!(r.x[0].abs() < 1e-4, "x = {:?}", r.x);
    }

    #[test]
    fn energy_split_equalizes_speed() {
        // Energy-shaped posynomial with a time budget — the WCS sanity
        // structure: min Σ wᵢ³/tᵢ² s.t. Σ tᵢ = T, tᵢ ≥ 0.05 (keeps 1/t²
        // finite). The optimum runs everything at the common speed Σwᵢ/T,
        // i.e. tᵢ = wᵢ·T/Σw.
        let (w, total) = ([1.0f64, 2.0, 3.0], 12.0);
        let floors: Vec<[(usize, f64); 1]> = (0..w.len()).map(|i| [(i, -1.0)]).collect();
        let ineq: Vec<(&[(usize, f64)], f64)> = floors.iter().map(|t| (&t[..], 0.05)).collect();
        let sum: Vec<(usize, f64)> = (0..w.len()).map(|i| (i, 1.0)).collect();
        let p = problem(
            &[total / w.len() as f64; 3],
            &ineq,
            &[(&sum, -total)],
            |t: &[f64], _: f64, grad: &mut [f64]| {
                let mut energy = 0.0;
                for ((&wi, &ti), g) in w.iter().zip(t).zip(grad.iter_mut()) {
                    energy += wi.powi(3) / (ti * ti);
                    *g = -2.0 * wi.powi(3) / (ti * ti * ti);
                }
                energy
            },
        );
        let r = solve(&p, &AugLagConfig::default());
        assert!(r.converged, "violation = {}", r.max_violation);
        // Expected t = w·T/Σw = (2, 4, 6).
        for (ti, want) in r.x.iter().zip([2.0, 4.0, 6.0]) {
            assert!((ti - want).abs() < 1e-2, "t = {:?}", r.x);
        }
        // Common speed 0.5 ⇒ objective Σ wᵢ·0.25.
        assert!((r.objective - 0.25 * 6.0).abs() < 1e-2);
        // The budget's multiplier: stationarity −2wᵢ³/tᵢ³ + λ = 0 at the
        // common speed 0.5 gives λ = 2·0.5³.
        assert!((r.lambda[0] - 0.25).abs() < 0.0125, "λ = {:?}", r.lambda);
    }

    #[test]
    fn infeasible_is_reported() {
        // x ≤ −1 and x ≥ 1 simultaneously.
        let p = problem(
            &[0.0],
            &[(&[(0, 1.0)], 1.0), (&[(0, -1.0)], 1.0)],
            &[],
            square_from(0.0),
        );
        let cfg = AugLagConfig {
            outer_iters: 12,
            ..Default::default()
        };
        let r = solve(&p, &cfg);
        assert!(!r.converged);
        // Best compromise is x in [−1, 1]; violation ≥ ~1.
        assert!(r.max_violation > 0.5);
    }

    #[test]
    fn smoothing_anneals_to_exact() {
        // min max(x, 0.3)², as 0.3 + τ·ln(1 + e^{(x−0.3)/τ}) while τ > 0.
        let p = problem(&[4.0], &[], &[], |x: &[f64], tau: f64, grad: &mut [f64]| {
            let (m, slope) = if tau > 0.0 {
                let z = (x[0] - 0.3) / tau;
                let softplus = z.max(0.0) + (-z.abs()).exp().ln_1p();
                (0.3 + tau * softplus, 1.0 / (1.0 + (-z).exp()))
            } else if x[0] >= 0.3 {
                (x[0], 1.0)
            } else {
                (0.3, 0.0)
            };
            grad[0] = 2.0 * m * slope;
            m * m
        });
        let r = solve(&p, &AugLagConfig::default());
        // Any x ≤ 0.3 is optimal with objective 0.09 (exact evaluation).
        assert!(r.objective <= 0.09 + 1e-6, "objective = {}", r.objective);
        assert!(r.x[0] <= 0.31, "x = {:?}", r.x);
    }

    #[test]
    fn seeded_multipliers_are_reported_and_reusable() {
        let p = active_ineq_problem();
        let cold = solve(&p, &AugLagConfig::default());
        assert_eq!(cold.nu.len(), 1);
        assert!(
            cold.nu[0] > 0.0,
            "the active constraint must end with a positive multiplier, got {:?}",
            cold.nu
        );
        // Re-solving seeded with the converged multipliers reproduces the
        // optimum (negative seeds are clamped away, extras ignored).
        let warm = solve_seeded(&p, &AugLagConfig::default(), Some(&cold.nu));
        assert!(warm.converged);
        assert!((warm.x[0] - 1.0).abs() < 1e-4, "x = {:?}", warm.x);
        let odd = solve_seeded(&p, &AugLagConfig::default(), Some(&[-5.0, 9.0]));
        assert!(odd.converged);
        assert!((odd.x[0] - 1.0).abs() < 1e-4, "x = {:?}", odd.x);
    }

    #[test]
    fn history_is_recorded() {
        let r = solve(&equality_qp_problem(), &AugLagConfig::default());
        assert!(!r.history.is_empty());
        assert!(r.history.last().unwrap().violation <= 1e-6);
        assert!(r.evaluations > 0);
    }

    /// The penalty pass as it was before the idle terms and the row view:
    /// one division per inequality row, CSR arrays indexed term by term.
    /// [`Phr::add_linear`] must match it bit for bit.
    fn add_linear_reference(
        lc: &LinearConstraints,
        lambda: &[f64],
        nu: &[f64],
        mu: f64,
        xv: &[f64],
        grad: &mut [f64],
        mut merit: f64,
    ) -> f64 {
        for (j, &lam) in lambda.iter().enumerate().take(lc.eq.rows()) {
            let h = lc.eq.value(j, xv);
            merit += lam * h + (mu / 2.0) * h * h;
            lc.eq.add_scaled_gradient(j, lam + mu * h, grad);
        }
        for (i, &nui) in nu.iter().enumerate().take(lc.ineq.rows()) {
            let t = (lc.ineq.value(i, xv) * mu + nui).max(0.0);
            merit += (t * t - nui * nui) / (2.0 * mu);
            if t > 0.0 {
                lc.ineq.add_scaled_gradient(i, t, grad);
            }
        }
        merit
    }

    /// [`Phr::add_linear`] with `idle` filled the way `solve_seeded`
    /// fills it.
    fn add_linear_fast(
        lc: &LinearConstraints,
        lambda: &[f64],
        nu: &[f64],
        mu: f64,
        xv: &[f64],
        grad: &mut [f64],
        merit: f64,
    ) -> f64 {
        let mut idle = vec![f64::NAN; nu.len()];
        Phr::new(lambda, nu, mu, &mut idle).add_linear(lc, xv, grad, merit)
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
    /// result unspecified.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn finite() -> impl Strategy<Value = f64> {
        prop_oneof![
            -4.0f64..4.0,
            -4.0f64..4.0,
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(-1.0),
        ]
    }

    fn maybe_nan() -> impl Strategy<Value = f64> {
        prop_oneof![
            finite(),
            finite(),
            finite(),
            finite(),
            finite(),
            finite(),
            finite(),
            Just(f64::NAN),
        ]
    }

    /// Up to 9 rows of up to 3 terms over 6 columns; empty rows included.
    fn rows() -> impl Strategy<Value = Vec<(Vec<(usize, f64)>, f64)>> {
        prop::collection::vec(
            (
                prop::collection::vec((0usize..6, finite()), 0..4),
                maybe_nan(),
            ),
            0..10,
        )
    }

    fn sparse<T: AsRef<[(usize, f64)]>>(rows: &[(T, f64)]) -> SparseLinear {
        let mut m = SparseLinear::new();
        for (terms, bias) in rows {
            m.push_row(terms.as_ref(), *bias);
        }
        m
    }

    proptest! {
        #[test]
        fn idle_terms_and_row_views_keep_the_penalty_bits(
            eq_rows in rows(),
            ineq_rows in rows(),
            x in prop::collection::vec(maybe_nan(), 6),
            lambda in prop::collection::vec(finite(), 9),
            nu in prop::collection::vec(
                prop_oneof![Just(0.0), Just(-0.0), 0.0f64..4.0, 0.0f64..1e3],
                9,
            ),
            mu in prop_oneof![Just(10.0), Just(100.0), 0.5f64..1e6],
            merit in finite(),
            grad in prop::collection::vec(finite(), 6),
        ) {
            let lc = LinearConstraints {
                ineq: sparse(&ineq_rows),
                eq: sparse(&eq_rows),
            };
            for m in [&lc.ineq, &lc.eq] {
                for (i, row) in m.iter().enumerate() {
                    prop_assert!(same_bits(row.value(&x), m.value(i, &x)), "row {i}");
                }
            }
            let (lambda, nu) = (&lambda[..lc.eq.rows()], &nu[..lc.ineq.rows()]);
            let (mut want_grad, mut got_grad) = (grad.clone(), grad);
            let want = add_linear_reference(&lc, lambda, nu, mu, &x, &mut want_grad, merit);
            let got = add_linear_fast(&lc, lambda, nu, mu, &x, &mut got_grad, merit);
            prop_assert!(same_bits(got, want), "merit {got:?}, reference {want:?}");
            for (j, (g, w)) in got_grad.iter().zip(&want_grad).enumerate() {
                prop_assert!(same_bits(*g, *w), "grad[{j}] {g:?}, reference {w:?}");
            }
        }
    }

    #[test]
    fn an_inactive_row_with_zero_multiplier_adds_positive_zero() {
        // The formula adds (0.0 − 0·0)/(2μ) = +0.0, which turns a merit of
        // −0.0 into +0.0; the algebraically equal −ν²/(2μ) is −0.0 and
        // would leave −0.0.
        let mut ineq = SparseLinear::new();
        ineq.push_row(&[(0, 1.0)], -1.0); // x − 1 ≤ 0, inactive at x = 0
        let lc = LinearConstraints {
            ineq,
            eq: SparseLinear::new(),
        };
        for nu in [0.0, -0.0] {
            let (mut want_grad, mut got_grad) = ([0.5], [0.5]);
            let want = add_linear_reference(&lc, &[], &[nu], 10.0, &[0.0], &mut want_grad, -0.0);
            let got = add_linear_fast(&lc, &[], &[nu], 10.0, &[0.0], &mut got_grad, -0.0);
            assert_eq!(want.to_bits(), 0.0f64.to_bits());
            assert_eq!(got.to_bits(), want.to_bits(), "nu = {nu:?}");
            assert_eq!(got_grad.map(f64::to_bits), want_grad.map(f64::to_bits));
        }
    }
}
