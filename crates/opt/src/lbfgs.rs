//! Limited-memory BFGS with strong-Wolfe line search.
//!
//! Minimizes a smooth (or piecewise-C¹) function given by a closure
//! `f(x, grad) -> value`. Used as the inner solver of the augmented
//! Lagrangian loop in [`crate::auglag`].
//!
//! The two-loop recursion runs as one pass over `d` per stored pair and
//! direction: each pass finishes one update of `d` and accumulates, on
//! the entries it just wrote, the dot product the next update needs. The
//! scaling `d *= γ` rides on the last backward pass and the slope `g·d`
//! on the last forward one. The curvature update is one pass too: it
//! writes `s = x⁺ − x` and `y = g⁺ − g` into a spare buffer pair while
//! accumulating `s·y`, `s·s` and `y·y`, and the pair joins the memory
//! only if the curvature test accepts it. Every accumulator starts from
//! `−0.0` and adds in ascending index order, which is what
//! `Iterator::sum::<f64>` does, so every dot, `ρ`, `α`, `γ`, `d` and slope
//! has the bits of the separate-pass form (kept as the reference in the
//! tests). With `memory: 0` no pair is stored and `γ` stays 1: every
//! step is steepest descent.

use crate::linesearch::{strong_wolfe, LineSearchError, LineSearchParams};
use std::collections::VecDeque;

/// Configuration of the L-BFGS loop.
#[derive(Debug, Clone)]
pub struct LbfgsConfig {
    /// Number of correction pairs kept (typical: 5–20).
    pub memory: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Stop when the relative objective decrease between iterations falls
    /// below this for two consecutive iterations.
    pub f_tol_rel: f64,
    /// Line-search parameters.
    pub line_search: LineSearchParams,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            memory: 10,
            max_iters: 300,
            grad_tol: 1e-7,
            f_tol_rel: 1e-14,
            line_search: LineSearchParams::default(),
        }
    }
}

/// Why the L-BFGS loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbfgsStop {
    /// Gradient infinity norm below tolerance — converged.
    GradTol,
    /// Objective stagnated (relative decrease below `f_tol_rel`).
    FTol,
    /// Iteration budget exhausted.
    MaxIters,
    /// Line search failed twice in a row (even after a steepest-descent
    /// restart); typically a non-smooth kink.
    LineSearchFailed,
    /// The objective was non-finite at the starting point.
    NonFiniteStart,
}

/// Result of [`minimize`].
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Gradient infinity norm at `x`.
    pub grad_inf_norm: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Total objective/gradient evaluations.
    pub evaluations: usize,
    /// Termination reason.
    pub stop: LbfgsStop,
}

impl LbfgsResult {
    /// `true` when the run ended in a state usable as a solution
    /// (converged or stagnated, as opposed to exploding).
    pub fn is_usable(&self) -> bool {
        matches!(
            self.stop,
            LbfgsStop::GradTol
                | LbfgsStop::FTol
                | LbfgsStop::MaxIters
                | LbfgsStop::LineSearchFailed
        ) && self.value.is_finite()
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, &x| m.max(x.abs()))
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One correction pair `s = x⁺ − x`, `y = g⁺ − g` and `ρ = 1/(s·y)`.
#[derive(Debug)]
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
}

impl Pair {
    fn zeros(n: usize) -> Self {
        Pair {
            s: vec![0.0; n],
            y: vec![0.0; n],
            rho: 0.0,
        }
    }
}

/// Writes `d = −H·g` by the two-loop recursion over `mem` (oldest pair
/// first) with initial scaling `gamma`, and returns the slope `g·d`.
/// `alphas` needs one slot per pair.
fn two_loop(
    grad: &[f64],
    mem: &VecDeque<Pair>,
    gamma: f64,
    alphas: &mut [f64],
    d: &mut [f64],
) -> f64 {
    let k = mem.len();
    let Some(newest) = mem.back() else {
        let mut slope = -0.0;
        for (dj, &gj) in d.iter_mut().zip(grad) {
            *dj = -gj;
            *dj *= gamma;
            slope += gj * *dj;
        }
        return slope;
    };
    // d = −g, accumulating s_{k−1}·d.
    let mut acc = -0.0;
    for ((dj, &gj), &sj) in d.iter_mut().zip(grad).zip(&newest.s) {
        *dj = -gj;
        acc += sj * *dj;
    }
    // Newest to oldest: d −= α_i·y_i, accumulating s_{i−1}·d; after the
    // oldest pair, d *= γ, accumulating y_0·d.
    for i in (1..k).rev() {
        let a = mem[i].rho * acc;
        alphas[i] = a;
        acc = -0.0;
        for ((dj, &yj), &sj) in d.iter_mut().zip(&mem[i].y).zip(&mem[i - 1].s) {
            *dj -= a * yj;
            acc += sj * *dj;
        }
    }
    let a = mem[0].rho * acc;
    alphas[0] = a;
    acc = -0.0;
    for (dj, &yj) in d.iter_mut().zip(&mem[0].y) {
        *dj -= a * yj;
        *dj *= gamma;
        acc += yj * *dj;
    }
    // Oldest to newest: d += (α_i − β_i)·s_i, accumulating y_{i+1}·d, and
    // after the newest pair g·d.
    for i in 0..k {
        let c = alphas[i] - mem[i].rho * acc;
        let next = if i + 1 < k { &mem[i + 1].y } else { grad };
        acc = -0.0;
        for ((dj, &sj), &wj) in d.iter_mut().zip(&mem[i].s).zip(next) {
            *dj += c * sj;
            acc += wj * *dj;
        }
    }
    acc
}

/// Writes `s = x⁺ − x` and `y = g⁺ − g` into `pair` and returns `(s·y,
/// s·s, y·y)`.
fn curvature(
    new_x: &[f64],
    x: &[f64],
    new_grad: &[f64],
    grad: &[f64],
    pair: &mut Pair,
) -> (f64, f64, f64) {
    let (mut sy, mut ss, mut yy) = (-0.0, -0.0, -0.0);
    let entries = pair.s.iter_mut().zip(pair.y.iter_mut());
    for ((sj, yj), ((&xa, &xb), (&ga, &gb))) in
        entries.zip(new_x.iter().zip(x).zip(new_grad.iter().zip(grad)))
    {
        let (s, y) = (xa - xb, ga - gb);
        *sj = s;
        *yj = y;
        sy += s * y;
        ss += s * s;
        yy += y * y;
    }
    (sy, ss, yy)
}

/// Minimizes `f` starting from `x0`.
///
/// The closure fills `grad` and returns the objective value; it is invoked
/// once per trial point. Non-finite trial values are handled by the line
/// search (treated as +∞), so barrier-style objectives are fine as long as
/// `x0` itself evaluates finite.
pub fn minimize<F>(mut f: F, x0: &[f64], config: &LbfgsConfig) -> LbfgsResult
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut grad = vec![0.0; n];
    let mut evaluations = 1usize;
    let mut value = f(&x, &mut grad);
    if !value.is_finite() {
        return LbfgsResult {
            grad_inf_norm: inf_norm(&grad),
            x,
            value,
            iterations: 0,
            evaluations,
            stop: LbfgsStop::NonFiniteStart,
        };
    }

    // The stored pairs, oldest first, and the spare the next curvature
    // update writes into. Pairs dropped by a restart wait in `free`, so a
    // solve allocates at most `memory + 1` pairs.
    let mut mem: VecDeque<Pair> = VecDeque::with_capacity(config.memory);
    let mut free: Vec<Pair> = Vec::new();
    let mut spare = Pair::zeros(n);
    let mut gamma = 1.0f64;

    // Per-iteration scratch, hoisted so warm iterations allocate nothing.
    let mut d = vec![0.0; n];
    let mut alphas = vec![0.0; config.memory];
    let mut trial = vec![0.0; n];
    let mut trial_grad = vec![0.0; n];
    let mut new_x = vec![0.0; n];
    let mut new_grad = vec![0.0; n];

    let mut stagnant = 0usize;
    let mut ls_failures = 0usize;
    let mut iterations = 0usize;
    let stop;

    loop {
        let gnorm = inf_norm(&grad);
        if gnorm <= config.grad_tol {
            stop = LbfgsStop::GradTol;
            break;
        }
        if iterations >= config.max_iters {
            stop = LbfgsStop::MaxIters;
            break;
        }
        iterations += 1;

        let k = mem.len();
        let mut slope = two_loop(&grad, &mem, gamma, &mut alphas, &mut d);
        // NaN or non-negative slope both mean the direction is unusable.
        if !matches!(slope.partial_cmp(&0.0), Some(std::cmp::Ordering::Less)) {
            // Hessian approximation corrupted; restart with steepest descent.
            free.extend(mem.drain(..));
            gamma = 1.0;
            for (dj, gj) in d.iter_mut().zip(&grad) {
                *dj = -gj;
            }
            slope = -dot(&grad, &grad);
        }

        // Line search along d.
        let mut ls_evals = 0usize;
        let phi = |a: f64| {
            for i in 0..n {
                trial[i] = x[i] + a * d[i];
            }
            let v = f(&trial, &mut trial_grad);
            (v, dot(&trial_grad, &d))
        };
        // First iteration: scale the unit step by the gradient size so a
        // wildly-scaled problem does not explode on step one.
        let ls_params = LineSearchParams {
            alpha_init: if k == 0 {
                (1.0 / gnorm.max(1.0)).min(1.0)
            } else {
                1.0
            },
            ..config.line_search
        };
        let result = {
            let mut phi = phi;
            strong_wolfe(
                |a| {
                    ls_evals += 1;
                    phi(a)
                },
                value,
                slope,
                &ls_params,
            )
        };
        evaluations += ls_evals;

        match result {
            Ok(ok) => {
                ls_failures = 0;
                // Every `Ok` path of `strong_wolfe` returns straight after
                // evaluating the accepted step, so `trial`/`trial_grad`
                // hold exactly φ(α) — reuse them instead of paying one
                // more merit evaluation per iteration. `trial` was filled
                // as `x + α·d`, the same expression we'd recompute.
                std::mem::swap(&mut new_x, &mut trial);
                std::mem::swap(&mut new_grad, &mut trial_grad);
                let new_value = ok.value;

                if config.memory > 0 {
                    let (sy, ss, yy) = curvature(&new_x, &x, &new_grad, &grad, &mut spare);
                    if sy > 1e-10 * ss.sqrt() * yy.sqrt() && yy > 0.0 {
                        // The spare joins the memory; the evicted pair's
                        // buffers (or a dropped or fresh one) become the
                        // next spare.
                        spare.rho = 1.0 / sy;
                        let next = if mem.len() == config.memory {
                            mem.pop_front()
                        } else {
                            free.pop()
                        };
                        let next = next.unwrap_or_else(|| Pair::zeros(n));
                        mem.push_back(std::mem::replace(&mut spare, next));
                        gamma = sy / yy;
                    }
                }

                let decrease = (value - new_value).abs();
                if decrease <= config.f_tol_rel * value.abs().max(1.0) {
                    stagnant += 1;
                } else {
                    stagnant = 0;
                }
                std::mem::swap(&mut x, &mut new_x);
                std::mem::swap(&mut grad, &mut new_grad);
                value = new_value;
                if stagnant >= 2 {
                    stop = LbfgsStop::FTol;
                    break;
                }
            }
            Err(LineSearchError::NotDescent) | Err(_) => {
                ls_failures += 1;
                if ls_failures >= 2 {
                    stop = LbfgsStop::LineSearchFailed;
                    break;
                }
                // Drop the memory and retry from steepest descent.
                free.extend(mem.drain(..));
                gamma = 1.0;
            }
        }
    }

    LbfgsResult {
        grad_inf_norm: inf_norm(&grad),
        x,
        value,
        iterations,
        evaluations,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quadratic_bowl() {
        // f = Σ i·(x_i − i)²
        let f = |x: &[f64], g: &mut [f64]| {
            let mut v = 0.0;
            for i in 0..x.len() {
                let w = (i + 1) as f64;
                let d = x[i] - (i + 1) as f64;
                v += w * d * d;
                g[i] = 2.0 * w * d;
            }
            v
        };
        let r = minimize(f, &[0.0; 5], &LbfgsConfig::default());
        assert_eq!(r.stop, LbfgsStop::GradTol);
        for i in 0..5 {
            assert!(
                (r.x[i] - (i + 1) as f64).abs() < 1e-6,
                "x[{i}] = {}",
                r.x[i]
            );
        }
        assert!(r.is_usable());
    }

    #[test]
    fn rosenbrock_2d() {
        let f = |x: &[f64], g: &mut [f64]| {
            let (a, b) = (x[0], x[1]);
            g[0] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a);
            g[1] = 200.0 * (b - a * a);
            100.0 * (b - a * a).powi(2) + (1.0 - a).powi(2)
        };
        let cfg = LbfgsConfig {
            max_iters: 500,
            ..Default::default()
        };
        let r = minimize(f, &[-1.2, 1.0], &cfg);
        assert!(r.value < 1e-10, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-4);
        assert!((r.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn rosenbrock_10d() {
        let f = |x: &[f64], g: &mut [f64]| {
            let n = x.len();
            let mut v = 0.0;
            g.fill(0.0);
            for i in 0..n - 1 {
                let t1 = x[i + 1] - x[i] * x[i];
                let t2 = 1.0 - x[i];
                v += 100.0 * t1 * t1 + t2 * t2;
                g[i] += -400.0 * x[i] * t1 - 2.0 * t2;
                g[i + 1] += 200.0 * t1;
            }
            v
        };
        let cfg = LbfgsConfig {
            max_iters: 2000,
            ..Default::default()
        };
        let r = minimize(f, &[0.5; 10], &cfg);
        assert!(
            r.value < 1e-8,
            "value = {} after {} iters",
            r.value,
            r.iterations
        );
    }

    #[test]
    fn already_converged_returns_immediately() {
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * x[0];
            x[0] * x[0]
        };
        let r = minimize(f, &[0.0], &LbfgsConfig::default());
        assert_eq!(r.iterations, 0);
        assert_eq!(r.stop, LbfgsStop::GradTol);
    }

    #[test]
    fn non_finite_start_detected() {
        let f = |_: &[f64], g: &mut [f64]| {
            g[0] = 0.0;
            f64::NAN
        };
        let r = minimize(f, &[1.0], &LbfgsConfig::default());
        assert_eq!(r.stop, LbfgsStop::NonFiniteStart);
        assert!(!r.is_usable());
    }

    #[test]
    fn piecewise_c1_hinge_converges_nearby() {
        // f = max(0, x)² + (x + 1)² is C¹; minimum at x = -1... actually
        // for x < 0: (x+1)², min at -1. Check we land there.
        let f = |x: &[f64], g: &mut [f64]| {
            let r = x[0].max(0.0);
            g[0] = 2.0 * r + 2.0 * (x[0] + 1.0);
            r * r + (x[0] + 1.0) * (x[0] + 1.0)
        };
        let r = minimize(f, &[2.0], &LbfgsConfig::default());
        assert!((r.x[0] + 1.0).abs() < 1e-5, "x = {}", r.x[0]);
    }

    #[test]
    fn max_iters_respected() {
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 1e9);
            (x[0] - 1e9) * (x[0] - 1e9)
        };
        let cfg = LbfgsConfig {
            max_iters: 2,
            ..Default::default()
        };
        let r = minimize(f, &[0.0], &cfg);
        assert!(r.iterations <= 2);
    }

    #[test]
    fn badly_scaled_quadratic() {
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2e6 * x[0];
            g[1] = 2e-6 * x[1];
            1e6 * x[0] * x[0] + 1e-6 * x[1] * x[1]
        };
        let cfg = LbfgsConfig {
            max_iters: 500,
            grad_tol: 1e-9,
            ..Default::default()
        };
        let r = minimize(f, &[1.0, 1.0], &cfg);
        assert!(r.x[0].abs() < 1e-6);
        // The tiny-curvature coordinate needs the curvature pairs to kick
        // in; just require decrease.
        assert!(r.value < 1e-4);
    }

    #[test]
    fn zero_memory_is_steepest_descent() {
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 1.0);
            g[1] = 8.0 * (x[1] + 2.0);
            (x[0] - 1.0).powi(2) + 4.0 * (x[1] + 2.0).powi(2)
        };
        let cfg = LbfgsConfig {
            memory: 0,
            max_iters: 1000,
            ..Default::default()
        };
        let r = minimize(f, &[0.0, 0.0], &cfg);
        assert_eq!(r.stop, LbfgsStop::GradTol);
        assert!((r.x[0] - 1.0).abs() < 1e-6, "x = {:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-6, "x = {:?}", r.x);
    }

    /// The two-loop recursion as separate passes, each dot through
    /// `Iterator::sum`, as `minimize` ran it before the passes were
    /// fused. [`two_loop`] must match it bit for bit.
    fn two_loop_reference(
        grad: &[f64],
        mem: &VecDeque<Pair>,
        gamma: f64,
        alphas: &mut [f64],
        d: &mut [f64],
    ) -> f64 {
        for (dj, gj) in d.iter_mut().zip(grad) {
            *dj = -gj;
        }
        let k = mem.len();
        for i in (0..k).rev() {
            let a = mem[i].rho * dot(&mem[i].s, d);
            alphas[i] = a;
            for (dj, yj) in d.iter_mut().zip(&mem[i].y) {
                *dj -= a * yj;
            }
        }
        for dj in d.iter_mut() {
            *dj *= gamma;
        }
        for i in 0..k {
            let b = mem[i].rho * dot(&mem[i].y, d);
            for (dj, sj) in d.iter_mut().zip(&mem[i].s) {
                *dj += (alphas[i] - b) * sj;
            }
        }
        dot(grad, d)
    }

    /// The curvature sums as three `Iterator::sum` passes and the pair
    /// as a fourth, as `minimize` ran them before the passes were fused.
    /// [`curvature`] must match it bit for bit.
    fn curvature_reference(
        new_x: &[f64],
        x: &[f64],
        new_grad: &[f64],
        grad: &[f64],
    ) -> ((f64, f64, f64), Pair) {
        let sy = new_x
            .iter()
            .zip(x)
            .zip(new_grad.iter().zip(grad))
            .map(|((xa, xb), (ga, gb))| (xa - xb) * (ga - gb))
            .sum::<f64>();
        let ss = new_x
            .iter()
            .zip(x)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
        let yy = new_grad
            .iter()
            .zip(grad)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
        let n = x.len();
        let mut pair = Pair::zeros(n);
        for i in 0..n {
            pair.s[i] = new_x[i] - x[i];
            pair.y[i] = new_grad[i] - grad[i];
        }
        ((sy, ss, yy), pair)
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
    /// result unspecified.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn all_same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(*x, *y))
    }

    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            -4.0f64..4.0,
            -4.0f64..4.0,
            -4.0f64..4.0,
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(-1.0),
            Just(f64::NAN),
        ]
    }

    /// `stored` pairs (ρ included) and then the gradient, drawn in turn
    /// from `pool`.
    fn draw(pool: &[f64], n: usize, stored: usize) -> (Vec<f64>, VecDeque<Pair>) {
        let mut vals = pool.iter().copied().cycle();
        let mem = (0..stored)
            .map(|_| Pair {
                s: (&mut vals).take(n).collect(),
                y: (&mut vals).take(n).collect(),
                rho: vals.next().unwrap(),
            })
            .collect();
        (vals.take(n).collect(), mem)
    }

    /// Runs the reference and the fused two-loop on the same input and
    /// compares `d`, every `α` and the slope.
    fn check_two_loop(
        grad: &[f64],
        mem: &VecDeque<Pair>,
        gamma: f64,
        memory: usize,
    ) -> Result<(), String> {
        let n = grad.len();
        let (mut want_d, mut got_d) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        let (mut want_a, mut got_a) = (vec![f64::NAN; memory], vec![f64::NAN; memory]);
        let want = two_loop_reference(grad, mem, gamma, &mut want_a, &mut want_d);
        let got = two_loop(grad, mem, gamma, &mut got_a, &mut got_d);
        if !same_bits(got, want)
            || !all_same_bits(&got_d, &want_d)
            || !all_same_bits(&got_a, &want_a)
        {
            return Err(format!(
                "slope {got:?} vs {want:?}, d {got_d:?} vs {want_d:?}, alphas {got_a:?} vs {want_a:?}"
            ));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn fused_two_loop_matches_the_separate_passes(
            n in 0usize..9,
            memory in 0usize..6,
            stored in 0usize..6,
            gamma in value(),
            pool in prop::collection::vec(value(), 128),
        ) {
            let (grad, mem) = draw(&pool, n, stored.min(memory));
            check_two_loop(&grad, &mem, gamma, memory)?;
        }

        #[test]
        fn fused_curvature_update_matches_the_separate_passes(
            n in 0usize..9,
            pool in prop::collection::vec(value(), 32),
        ) {
            let (x0, x1, g0, g1) = (&pool[..n], &pool[8..8 + n], &pool[16..16 + n], &pool[24..24 + n]);
            let ((sy, ss, yy), want) = curvature_reference(x1, x0, g1, g0);
            let mut got = Pair::zeros(n);
            let (gsy, gss, gyy) = curvature(x1, x0, g1, g0, &mut got);
            prop_assert!(
                same_bits(gsy, sy) && same_bits(gss, ss) && same_bits(gyy, yy),
                "sums {:?} vs {:?}", (gsy, gss, gyy), (sy, ss, yy)
            );
            prop_assert!(all_same_bits(&got.s, &want.s), "s {:?} vs {:?}", got.s, want.s);
            prop_assert!(all_same_bits(&got.y, &want.y), "y {:?} vs {:?}", got.y, want.y);
        }
    }

    #[test]
    fn every_accumulator_starts_from_negative_zero() {
        // Every dot in these cases has only −0.0 products (or none), so an
        // accumulator started from +0.0 flips the sign of a zero in the
        // slope, an α or `d`. γ = −1 makes the dot of the scaling pass
        // observable: with γ > 0 its sign cannot reach `d`.
        let pair = |s: f64, y: f64| Pair {
            s: vec![s],
            y: vec![y],
            rho: 1.0,
        };
        let cases = [
            (vec![0.0], VecDeque::new(), 1.0),
            (
                vec![0.0],
                VecDeque::from([pair(0.0, -0.0), pair(0.0, -0.0)]),
                1.0,
            ),
            (
                vec![-0.0],
                VecDeque::from([pair(-0.0, 0.0), pair(-0.0, 0.0)]),
                -1.0,
            ),
            (
                vec![],
                VecDeque::from([pair(1.0, 1.0), pair(1.0, 1.0)]),
                1.0,
            ),
        ];
        for (i, (grad, mut mem, gamma)) in cases.into_iter().enumerate() {
            for p in &mut mem {
                p.s.truncate(grad.len());
                p.y.truncate(grad.len());
            }
            check_two_loop(&grad, &mem, gamma, 2).unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
        // The references sum through `Iterator::sum::<f64>`, which starts
        // from −0.0; this pins that, so the cases above test what they
        // claim.
        assert_eq!(
            std::iter::empty::<f64>().sum::<f64>().to_bits(),
            (-0.0f64).to_bits()
        );

        // s·y with s = +0 and y = −1 has one −0.0 product; with no entries
        // s·s and y·y have none (theirs are never −0.0 otherwise).
        let bits = |t: (f64, f64, f64)| [t.0.to_bits(), t.1.to_bits(), t.2.to_bits()];
        let cases: [[&[f64]; 4]; 2] = [[&[0.0], &[0.0], &[0.0], &[1.0]], [&[], &[], &[], &[]]];
        for (i, [new_x, x, new_grad, grad]) in cases.into_iter().enumerate() {
            let (want, _) = curvature_reference(new_x, x, new_grad, grad);
            let got = curvature(new_x, x, new_grad, grad, &mut Pair::zeros(x.len()));
            assert_eq!(want.0.to_bits(), (-0.0f64).to_bits(), "case {i}");
            assert_eq!(bits(got), bits(want), "case {i}");
        }
    }
}
