//! The greedy-chain energy kernel: one hand-written `f64` forward and
//! reverse sweep of the objective both NLPs share — the offline
//! [`crate::formulation::ScheduleProblem`] and the boundary re-solve of
//! [`crate::reopt`].
//!
//! Each problem also states its objective on the AD tape, under
//! `cfg(test)`: the readable reference (`reference::TapeObjective`).
//! The kernel reproduces it **bit for bit**, value and every gradient
//! entry, so it computes exactly the objective the tape statement says.
//! That is a stronger contract than "the same math", and it dictates
//! the shape of the code below:
//!
//! * every local partial is computed the way the tape records it
//!   (`adj · (1/b)`, not `adj / b`), with the tape's own scalar helpers
//!   ([`relu`], [`softplus`], [`volt_and_slope`]), so their shortcuts,
//!   like `softplus`'s saturated tails, hold for tape and kernel alike;
//! * contributions are added to each variable in the tape's reverse
//!   node order — later links before earlier ones, and within a link the
//!   order below — straight into the gradient buffer;
//! * a node whose adjoint is zero passes nothing on, exactly like the
//!   tape's sweep skips it. This matters: the alpha law's `dV/df` is
//!   infinite at speed 0, and multiplying a zero adjoint through it
//!   would produce NaN where the tape produces 0.
//!
//! Any change to the objective edits its tape statement and this kernel
//! together; the bitwise tests at the bottom of this file catch drift.

use acs_model::units::Freq;
use acs_opt::tape::{relu, softplus};
use acs_power::{FreqModel, Processor};

/// `max(v, c)` at temperature `tau` as the tape's `smax_const` forms it
/// — `softplus(v − c) + c`, or `relu(v − c) + c` at zero — and its slope.
fn floor_at(v: f64, c: f64, tau: f64) -> (f64, f64) {
    let (y, d) = if tau > 0.0 {
        softplus(v - c, tau)
    } else {
        relu(v - c)
    };
    (y + c, d)
}

/// Voltage delivering the (non-negative) speed under `model`, and the
/// slope `dV/df`. The alpha law's slope comes from the implicit-function
/// rule and is infinite at speed 0.
pub(crate) fn volt_and_slope(model: &FreqModel, speed: f64) -> (f64, f64) {
    match *model {
        FreqModel::Linear { kappa } => (speed / kappa, 1.0 / kappa),
        FreqModel::Alpha { .. } => {
            let v = model.volt_for(Freq::from_cycles_per_ms(speed.max(0.0)));
            (v.as_volts(), 1.0 / model.dfreq_dvolt(v))
        }
    }
}

/// How the start time `max(f_prev, lo)` is formed at zero temperature.
/// Above zero both problems use the same softplus surrogate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StartMax {
    /// The exact max: exactly one operand, ties follow `f_prev`.
    Exact,
    /// `relu(f_prev − lo) + lo`, which rounds differently.
    Floor,
}

/// The inputs of one link `k` of the chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkIn {
    /// Earliest start (ms).
    pub lo: f64,
    /// Switching capacitance of the link's task.
    pub c_eff: f64,
    /// End time (ms) — always a decision variable.
    pub e: f64,
    /// Executed share `a` (ms at `f_max`).
    pub a: f64,
    /// Worst-case budget `w` (ms at `f_max`).
    pub w: f64,
}

/// What the forward sweep keeps of one link for the reverse sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkTape {
    ds: f64,
    dg: f64,
    num: f64,
    den: f64,
    dsr: f64,
    dv0: f64,
    dvm: f64,
    v: f64,
    c_eff: f64,
    cv: f64,
    af: f64,
    a: f64,
    wd: f64,
    rho: f64,
    es: f64,
}

/// Where the reverse sweep delivers adjoints. Each call adds one
/// contribution; problems whose `a` and `w` are constants ignore those.
pub(crate) trait ChainGrad {
    /// Adds `d` to the adjoint of link `k`'s end time.
    fn end(&mut self, k: usize, d: f64);
    /// Adds `d` to the adjoint of link `k`'s executed share.
    fn share(&mut self, k: usize, d: f64);
    /// Adds `d` to the adjoint of link `k`'s worst-case budget.
    fn budget(&mut self, k: usize, d: f64);
}

/// The greedy runtime's energy along a chain of links: each starts at
/// `s = max(f_prev, lo)`, runs its budget over `e − s` at speed
/// `σ = basis·f_max / (max(e − s, ε_t) + ε_t)`, pays
/// `c_eff · V(σ)² · a·f_max`, and finishes at `s + a/(w+ε_w) · (e − s)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain<'a> {
    pub cpu: &'a Processor,
    pub fmax: f64,
    pub eps_t: f64,
    pub eps_w: f64,
    /// Finish time before the first link (ms).
    pub origin: f64,
    pub start: StartMax,
    /// The speed numerator is the executed share, not the budget.
    pub basis_is_share: bool,
}

impl Chain<'_> {
    /// The energy of links `0..n`, recording each link in `tape`.
    pub fn forward(
        &self,
        tau: f64,
        n: usize,
        link: impl Fn(usize) -> LinkIn,
        tape: &mut Vec<LinkTape>,
    ) -> f64 {
        let law = self.cpu.freq_model();
        let vmin = self.cpu.vmin().as_volts();
        tape.clear();
        let mut energy = 0.0;
        let mut f_prev = self.origin;
        for k in 0..n {
            let LinkIn { lo, c_eff, e, a, w } = link(k);
            let (s, ds) = match self.start {
                StartMax::Floor => floor_at(f_prev, lo, tau),
                StartMax::Exact if tau > 0.0 => floor_at(f_prev, lo, tau),
                StartMax::Exact if f_prev >= lo => (f_prev, 1.0),
                StartMax::Exact => (lo, 0.0),
            };
            let (g, dg) = floor_at(e - s, self.eps_t, tau);
            let den = g + self.eps_t;
            let basis = if self.basis_is_share { a } else { w };
            let num = basis * self.fmax;
            let (sr, dsr) = relu(num / den);
            let (v0, dv0) = volt_and_slope(law, sr);
            let (v, dvm) = floor_at(v0, vmin, tau);
            let cv = v * v * c_eff;
            let af = a * self.fmax;
            energy += cv * af;
            let wd = w + self.eps_w;
            let rho = a / wd;
            let es = e - s;
            f_prev = s + rho * es;
            tape.push(LinkTape {
                ds,
                dg,
                num,
                den,
                dsr,
                dv0,
                dvm,
                v,
                c_eff,
                cv,
                af,
                a,
                wd,
                rho,
                es,
            });
        }
        energy
    }

    /// Propagates `adj_energy`, the adjoint of the chain's energy,
    /// through the links recorded by [`Chain::forward`].
    pub fn reverse(&self, adj_energy: f64, tape: &[LinkTape], grad: &mut impl ChainGrad) {
        // Adjoint of the finish time leaving link k (the last one's is
        // unused, hence zero).
        let mut adj_f = 0.0;
        for (k, t) in tape.iter().enumerate().rev() {
            // f = s + ρ·(e − s)
            let mut adj_s = 0.0;
            let (mut adj_rho, mut adj_es) = (0.0, 0.0);
            if adj_f != 0.0 {
                adj_s += adj_f;
                adj_rho = adj_f * t.es;
                adj_es = adj_f * t.rho;
            }
            if adj_es != 0.0 {
                grad.end(k, adj_es);
                adj_s -= adj_es;
            }
            // ρ = a / (w + ε_w)
            if adj_rho != 0.0 {
                grad.share(k, adj_rho * (1.0 / t.wd));
                let adj_wd = adj_rho * (-t.a / (t.wd * t.wd));
                if adj_wd != 0.0 {
                    grad.budget(k, adj_wd);
                }
            }
            // energy term (c_eff·V²)·(a·f_max)
            if adj_energy != 0.0 {
                let adj_cv = adj_energy * t.af;
                let adj_af = adj_energy * t.cv;
                if adj_af != 0.0 {
                    grad.share(k, adj_af * self.fmax);
                }
                let adj_vsq = if adj_cv != 0.0 { adj_cv * t.c_eff } else { 0.0 };
                let adj_v = if adj_vsq != 0.0 {
                    adj_vsq * (2.0 * t.v)
                } else {
                    0.0
                };
                // V = max(V(σ), V_min), σ = relu(num / den)
                let adj_v0 = if adj_v != 0.0 { adj_v * t.dvm } else { 0.0 };
                let adj_sr = if adj_v0 != 0.0 { adj_v0 * t.dv0 } else { 0.0 };
                let adj_speed = if adj_sr != 0.0 { adj_sr * t.dsr } else { 0.0 };
                if adj_speed != 0.0 {
                    let adj_num = adj_speed * (1.0 / t.den);
                    let adj_den = adj_speed * (-t.num / (t.den * t.den));
                    if adj_num != 0.0 {
                        if self.basis_is_share {
                            grad.share(k, adj_num * self.fmax);
                        } else {
                            grad.budget(k, adj_num * self.fmax);
                        }
                    }
                    // den = max(e − s, ε_t) + ε_t
                    let adj_gap = if adj_den != 0.0 { adj_den * t.dg } else { 0.0 };
                    if adj_gap != 0.0 {
                        grad.end(k, adj_gap);
                        adj_s -= adj_gap;
                    }
                }
            }
            // s = max(f_prev, lo)
            adj_f = if adj_s != 0.0 { adj_s * t.ds } else { 0.0 };
        }
    }
}

/// The tape side of the kernel contract: each problem's objective stated
/// on the AD tape, and the tape twins of the scalar helpers above.
#[cfg(test)]
pub(crate) mod reference {
    use super::volt_and_slope;
    use acs_opt::problem::ConstrainedProblem;
    use acs_opt::tape::{Expr, Graph};
    use acs_power::Processor;

    /// A problem whose objective is also stated on the tape: the
    /// reference its kernel ([`ConstrainedProblem::objective`]) must
    /// reproduce bit for bit.
    pub(crate) trait TapeObjective: ConstrainedProblem {
        /// The objective at `x` on graph `g`.
        fn tape_objective<'g>(&self, g: &'g Graph, x: &[Expr<'g>], smoothing: f64) -> Expr<'g>;
    }

    /// Voltage expression for a (non-negative) speed expression under
    /// `cpu`'s frequency law, clamped below at `vmin`.
    pub(crate) fn voltage_for_speed<'g>(cpu: &Processor, speed: Expr<'g>, tau: f64) -> Expr<'g> {
        let speed = speed.relu();
        let (v, dv) = volt_and_slope(cpu.freq_model(), speed.value());
        smax_const(speed.custom_unary(v, dv), cpu.vmin().as_volts(), tau)
    }

    /// `max(a, b)`: smooth when `tau > 0`, exact otherwise.
    pub(crate) fn smax<'g>(a: Expr<'g>, b: Expr<'g>, tau: f64) -> Expr<'g> {
        if tau > 0.0 {
            a.smooth_max(b, tau)
        } else {
            a.max_exact(b)
        }
    }

    /// `max(a, c)` with a constant — same cost, fewer nodes.
    pub(crate) fn smax_const<'g>(a: Expr<'g>, c: f64, tau: f64) -> Expr<'g> {
        if tau > 0.0 {
            (a - c).softplus(tau) + c
        } else {
            (a - c).relu() + c
        }
    }
}

#[cfg(test)]
mod tests {
    //! The kernel contract: value and every gradient entry are
    //! `to_bits`-equal to the tape statement (NaN matches NaN), and
    //! value-only calls return the value of value+gradient calls.

    use super::reference::TapeObjective;
    use crate::formulation::{ObjectiveKind, ScheduleProblem};
    use crate::reopt::{InstanceProgress, RemainingInstance, RemainingProblem};
    use crate::synthesis::{synthesize_wcs, SynthesisOptions};
    use acs_model::units::{Cycles, Ticks, Time, Volt};
    use acs_model::{Task, TaskId, TaskSet};
    use acs_opt::problem::ConstrainedProblem;
    use acs_opt::tape::Graph;
    use acs_power::{FreqModel, Processor};
    use acs_preempt::{FullyPreemptiveSchedule, InstanceId};

    const TEMPERATURES: [f64; 6] = [1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 0.0];

    /// SplitMix64: a tiny deterministic generator for the random points.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next()
        }
    }

    fn tape_eval(p: &dyn TapeObjective, x: &[f64], tau: f64) -> (f64, Vec<f64>) {
        let g = Graph::new();
        let xs: Vec<_> = x.iter().map(|&v| g.input(v)).collect();
        let objective = p.tape_objective(&g, &xs, tau);
        let mut grad = vec![0.0; x.len()];
        g.gradient(objective).write_wrt(&xs, &mut grad);
        (objective.value(), grad)
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Asserts the kernel matches the tape at `x`; returns how many
    /// gradient entries were NaN (so callers can see the edge cases ran).
    fn assert_bitwise(p: &dyn TapeObjective, x: &[f64], tau: f64, what: &str) -> usize {
        let (want, want_grad) = tape_eval(p, x, tau);
        // Garbage in the buffer must be overwritten, not accumulated.
        let mut grad = vec![f64::NAN; x.len()];
        let got = p.objective(x, tau, Some(&mut grad));
        assert!(
            same(got, want),
            "{what} τ={tau}: value {got:e} vs tape {want:e}"
        );
        for (i, (g, w)) in grad.iter().zip(&want_grad).enumerate() {
            assert!(
                same(*g, *w),
                "{what} τ={tau}: ∂/∂x[{i}] = {g:e} vs tape {w:e} at x = {x:?}"
            );
        }
        let value_only = p.objective(x, tau, None);
        assert!(
            same(value_only, got),
            "{what} τ={tau}: value-only {value_only:e} vs {got:e}"
        );
        want_grad.iter().filter(|g| g.is_nan()).count()
    }

    fn set() -> TaskSet {
        let mk = |n: &str, p: u64, w: f64| {
            Task::builder(n, Ticks::new(p))
                .wcec(Cycles::from_cycles(w))
                .acec(Cycles::from_cycles(0.55 * w))
                .bcec(Cycles::from_cycles(0.1 * w))
                .build()
                .unwrap()
        };
        TaskSet::new(vec![mk("a", 4, 60.0), mk("b", 6, 90.0), mk("c", 12, 150.0)]).unwrap()
    }

    fn processors() -> Vec<(&'static str, Processor)> {
        let linear = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let alpha =
            Processor::builder(FreqModel::alpha(120.0, Volt::from_volts(0.4), 1.6).unwrap())
                .vmin(Volt::from_volts(0.5))
                .vmax(Volt::from_volts(4.0))
                .build()
                .unwrap();
        vec![("linear", linear), ("alpha", alpha)]
    }

    /// Random points around the initial point of `p`: near it, spread
    /// across the windows, and `far` spans outside them (negative
    /// budgets, reversed end times, end times before the release).
    fn points(rng: &mut Rng, x0: &[f64], count: usize, far: f64) -> Vec<Vec<f64>> {
        let span = x0.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        (0..count)
            .map(|i| {
                let scale = match i % 3 {
                    0 => 1e-3,
                    1 => 0.3,
                    _ => far,
                };
                x0.iter()
                    .map(|&v| v + scale * span * rng.range(-1.0, 1.0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn schedule_kernel_is_bitwise_the_tape() {
        let set = set();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let mut rng = Rng(14);
        let mut checked = 0;
        for (law, cpu) in processors() {
            for kind in [
                ObjectiveKind::AcecTrace,
                ObjectiveKind::PaperIdealSpeed,
                ObjectiveKind::WorstCase,
                ObjectiveKind::Quantiles(4),
            ] {
                let p = ScheduleProblem::new(&set, &cpu, &fps, kind);
                let x0 = p.initial_point();
                for tau in TEMPERATURES {
                    assert_bitwise(&p, &x0, tau, &format!("{law} {kind:?} x0"));
                    for x in points(&mut rng, &x0, 12, 3.0) {
                        assert_bitwise(&p, &x, tau, &format!("{law} {kind:?}"));
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 4 * TEMPERATURES.len() * 12);
    }

    /// Zero speed under the alpha law: `dV/df` is infinite there, so a
    /// kernel that multiplied a zero adjoint through it would report NaN
    /// where the tape reports 0. Where the adjoint reaching it is not
    /// zero, the tape itself reports NaN, and so must the kernel.
    #[test]
    fn schedule_kernel_matches_the_tape_at_zero_speed() {
        let set = set();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        for (law, cpu) in processors() {
            let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
            let m = p.num_subs();
            let mut nans = 0;
            // No budget anywhere: every speed is exactly zero.
            let mut x = p.initial_point();
            x[m..].iter_mut().for_each(|w| *w = 0.0);
            // Every other budget zero, end times stacked on releases.
            let mut y = p.initial_point();
            for u in (0..m).step_by(2) {
                y[m + u] = 0.0;
                y[u] = 0.0;
            }
            for tau in TEMPERATURES {
                nans += assert_bitwise(&p, &x, tau, &format!("{law} zero budgets"));
                nans += assert_bitwise(&p, &y, tau, &format!("{law} mixed zero budgets"));
            }
            assert_eq!(
                nans > 0,
                law == "alpha",
                "{law}: {nans} NaN gradient entries"
            );
        }
    }

    /// Boundary states of a WCS schedule: untouched, early completions,
    /// mid-chunk progress, a receding horizon and a late boundary that
    /// cannot fit its worst case.
    #[test]
    fn remaining_kernel_is_bitwise_the_tape() {
        let set = set();
        let mut rng = Rng(2005);
        let mut checked = 0;
        for (law, cpu) in processors() {
            let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
            let progress = |task: usize, executed: f64, chunk: usize, left: f64, done: bool| {
                InstanceProgress {
                    instance: InstanceId {
                        task: TaskId(task),
                        index: 0,
                    },
                    executed: Cycles::from_cycles(executed),
                    current_chunk: chunk,
                    chunk_budget_left: Cycles::from_cycles(left),
                    released: true,
                    done,
                }
            };
            let states: Vec<(&str, RemainingInstance)> = vec![
                (
                    "untouched",
                    RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[]),
                ),
                (
                    "early completion",
                    RemainingInstance::at_boundary(
                        &wcs,
                        &set,
                        &cpu,
                        Time::from_ms(0.7),
                        &[progress(0, 20.0, 0, 40.0, true)],
                    ),
                ),
                (
                    "mid-chunk",
                    RemainingInstance::at_boundary(
                        &wcs,
                        &set,
                        &cpu,
                        Time::from_ms(1.9),
                        &[
                            progress(0, 60.0, 0, 0.0, true),
                            progress(1, 35.0, 1, 10.0, false),
                        ],
                    ),
                ),
                (
                    "horizon 2",
                    RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[])
                        .with_horizon(2),
                ),
                (
                    "late",
                    RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(11.0), &[]),
                ),
            ];
            for (name, rem) in &states {
                assert!(!rem.is_settled(), "{law} {name}: nothing to optimize");
                let warm = rem.warm_ends_ms();
                let p = RemainingProblem::new(rem, &warm);
                let x0 = p.initial_point();
                for tau in TEMPERATURES {
                    assert_bitwise(&p, &x0, tau, &format!("{law} {name} x0"));
                    for x in points(&mut rng, &x0, 8, 3.0) {
                        assert_bitwise(&p, &x, tau, &format!("{law} {name}"));
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 5 * TEMPERATURES.len() * 8);
    }
}
