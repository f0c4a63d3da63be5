//! Online re-optimization of the **remaining** schedule — the solver side
//! of the `ReOpt` policy in `acs-sim`.
//!
//! The paper's ACS synthesis runs offline against *expected* (ACEC)
//! workloads. At run time the workload actually observed so far keeps
//! diverging from that expectation, and every job boundary (a release or
//! a completion) is an opportunity to re-solve the remaining low-energy
//! schedule against the observed state: executed cycles subtracted from
//! the budgets, the current time as the new origin, windows and deadlines
//! unchanged. This module builds that *remaining-instance* formulation
//! and re-synthesizes end times with the same augmented-Lagrangian stack
//! the offline phase uses ([`acs_opt::auglag`]).
//!
//! Design constraints that shape the API:
//!
//! * **Re-solves must be cheap.** Boundary solves happen thousands of
//!   times per simulation, so the problem is reduced to the end-time
//!   variables only (the worst-case budgets `R̂_u` are fixed by the static
//!   schedule and enforced by the engine), an optional receding
//!   [`horizon`](RemainingInstance::with_horizon) caps the dimension, and
//!   every solve is warm-started from the static schedule's end times
//!   projected onto the remaining window ([`RemainingInstance::warm_ends_ms`]).
//! * **Safety is gated outside the solver.** Candidate end times are
//!   exact-ified and checked by [`RemainingInstance::feasible`] — the
//!   worst-case chain `e_u ≥ max(r_u, e_{u−1}) + R̂_u^rem/f_max` inside
//!   windows — before the runtime may adopt them; infeasible candidates
//!   are discarded and the runtime keeps its previous (greedy-safe) end
//!   times.
//! * **Determinism.** The solve is a pure function of the
//!   [`RemainingInstance`] (which callers build from *quantized*
//!   observations), so identical boundary states produce bit-identical
//!   end times — the property the `ReOpt` policy's solver cache relies
//!   on ([`RemainingInstance::cache_key`]).
//!
//! ```
//! use acs_core::{synthesize_wcs, SynthesisOptions};
//! use acs_core::reopt::{synthesize_remaining, RemainingInstance, ReoptOptions};
//! use acs_model::{Task, TaskSet, units::{Cycles, Ticks, Time, Volt}};
//! use acs_power::{FreqModel, Processor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mk = |n: &str| Task::builder(n, Ticks::new(20))
//!     .wcec(Cycles::from_cycles(1000.0))
//!     .acec(Cycles::from_cycles(500.0))
//!     .bcec(Cycles::from_cycles(100.0))
//!     .build().unwrap();
//! let set = TaskSet::new(vec![mk("t1"), mk("t2"), mk("t3")])?;
//! let cpu = Processor::builder(FreqModel::linear(50.0)?)
//!     .vmin(Volt::from_volts(0.5)).vmax(Volt::from_volts(4.0)).build()?;
//! let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick())?;
//!
//! // Re-optimize the WCS end times at t = 0 against expected workloads:
//! // this is exactly the online ACS step, and it recovers most of the
//! // offline ACS-vs-WCS gain.
//! let rem = RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[]);
//! let before = rem.energy_of(rem.static_ends_ms());
//! let out = synthesize_remaining(&rem, &ReoptOptions::default());
//! assert!(out.feasible);
//! assert!(out.predicted_energy.as_units() < before);
//! # Ok(())
//! # }
//! ```

use crate::chain::{Chain, ChainGrad, LinkIn, LinkTape, StartMax};
use crate::fill::fill_amounts;
use crate::formulation::{smax_const, voltage_for_speed};
use crate::schedule::StaticSchedule;
use acs_model::units::{Cycles, Energy, Freq, Time};
use acs_model::TaskSet;
use acs_opt::auglag::{self, AugLagConfig};
use acs_opt::lbfgs::LbfgsConfig;
use acs_opt::problem::{ConstrainedProblem, LinearConstraints, ProblemExprs, SparseLinear};
use acs_opt::tape::{Expr, Graph};
use acs_power::Processor;
use acs_preempt::InstanceId;
use std::cell::RefCell;

/// Observable runtime state of one task instance at a job boundary, as
/// reported by the simulation engine (`acs-sim` fills one of these per
/// job when a policy asks for boundary callbacks).
///
/// `current_chunk`/`chunk_budget_left` describe the budget-enforcement
/// state: chunks before `current_chunk` have exhausted their worst-case
/// budgets, the current chunk has `chunk_budget_left` of its budget
/// remaining, and later chunks are untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceProgress {
    /// Which instance this progress describes.
    pub instance: InstanceId,
    /// Cycles executed so far (over all chunks).
    pub executed: Cycles,
    /// Index of the chunk currently armed (0-based, within the instance).
    pub current_chunk: usize,
    /// Remaining worst-case budget of the current chunk.
    pub chunk_budget_left: Cycles,
    /// `true` once the instance's release time has passed.
    pub released: bool,
    /// `true` once the instance completed.
    pub done: bool,
}

/// The remaining-instance formulation at one job boundary: everything the
/// re-optimizer needs, flattened to plain vectors so the value is
/// self-contained (no borrows), cheap to hash and safe to cache.
///
/// Built by [`RemainingInstance::at_boundary`] from a [`StaticSchedule`]
/// and the engine's [`InstanceProgress`] snapshot.
#[derive(Debug, Clone)]
pub struct RemainingInstance {
    now_ms: f64,
    cpu: Processor,
    fmax: f64,
    /// Per sub-instance (total order): earliest permitted end time
    /// `max(window start, now)` (ms).
    lo_ms: Vec<f64>,
    /// Window end `L_u` (ms).
    hi_ms: Vec<f64>,
    /// Remaining worst-case budget, in ms at `f_max`.
    rem_w_ms: Vec<f64>,
    /// Expected executed share (fill rule over remaining budgets), in ms
    /// at `f_max`.
    a_ms: Vec<f64>,
    /// Per sub-instance effective switching capacitance.
    c_eff: Vec<f64>,
    /// The static schedule's end times (ms) — warm-start anchor and the
    /// value frozen subs keep.
    static_ends_ms: Vec<f64>,
    /// Total-order indices of subs with remaining work and an open window.
    live: Vec<usize>,
    /// Prefix of `live` entering the NLP (receding horizon); the tail is
    /// kept fixed at the caller's current end times.
    opt_live: Vec<usize>,
    /// Effective upper bound of the *last* horizon variable (never past
    /// its static end time when a tail exists, so the tail's slack is not
    /// consumed blindly).
    last_hi_ms: f64,
}

impl RemainingInstance {
    /// Builds the remaining formulation at boundary time `now`.
    ///
    /// `progress` may cover any subset of the hyper-period's instances;
    /// instances not mentioned are treated as untouched (full budgets).
    /// Completed instances contribute nothing; a chunk whose window has
    /// already closed rolls any leftover budget into the instance's next
    /// chunk (mirroring the engine's roll-forward rule).
    pub fn at_boundary(
        schedule: &StaticSchedule,
        set: &TaskSet,
        cpu: &Processor,
        now: Time,
        progress: &[InstanceProgress],
    ) -> RemainingInstance {
        let fps = schedule.fps();
        let m = fps.len();
        let fmax = cpu.f_max().as_cycles_per_ms();
        let now_ms = now.as_ms();
        let mut lo_ms = vec![0.0; m];
        let mut hi_ms = vec![0.0; m];
        let mut rem_w_ms = vec![0.0; m];
        let mut a_ms = vec![0.0; m];
        let mut c_eff = vec![0.0; m];
        let mut static_ends_ms = vec![0.0; m];
        for (u, sub) in fps.sub_instances().iter().enumerate() {
            lo_ms[u] = sub.window_start.as_ms().max(now_ms);
            hi_ms[u] = sub.window_end.as_ms();
            c_eff[u] = set.task(sub.instance.task).c_eff();
            static_ends_ms[u] = schedule.milestone(sub.id).end_time.as_ms();
        }

        // Index progress by (task, instance).
        let mut by_instance: Vec<Vec<Option<&InstanceProgress>>> = set
            .iter()
            .map(|(tid, _)| vec![None; fps.instances_of(tid) as usize])
            .collect();
        for p in progress {
            let t = p.instance.task.0;
            let i = p.instance.index as usize;
            if t < by_instance.len() && i < by_instance[t].len() {
                by_instance[t][i] = Some(p);
            }
        }

        for (tid, task) in set.iter() {
            for inst in 0..fps.instances_of(tid) {
                let ids: Vec<_> = fps
                    .chunks_of(InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .collect();
                let budgets: Vec<f64> = ids
                    .iter()
                    .map(|id| schedule.milestone(*id).worst_workload.as_cycles())
                    .collect();
                let p = by_instance[tid.0][inst as usize];
                let (executed, cur, left, done) = match p {
                    Some(p) => (
                        p.executed.as_cycles().max(0.0),
                        p.current_chunk.min(ids.len().saturating_sub(1)),
                        p.chunk_budget_left.as_cycles().max(0.0),
                        p.done,
                    ),
                    None => (0.0, 0, budgets.first().copied().unwrap_or(0.0), false),
                };
                // Remaining worst-case budget per chunk. The current
                // chunk's `left` is NOT clamped to its static budget:
                // the engine rolls a predecessor's leftover budget
                // forward, and dropping that surplus would make the
                // worst-case gate optimistic.
                let mut rem: Vec<f64> = if done {
                    vec![0.0; ids.len()]
                } else {
                    budgets
                        .iter()
                        .enumerate()
                        .map(|(k, &b)| match k.cmp(&cur) {
                            std::cmp::Ordering::Less => 0.0,
                            std::cmp::Ordering::Equal => left,
                            std::cmp::Ordering::Greater => b,
                        })
                        .collect()
                };
                // Roll budget out of closed windows (engine roll-forward).
                for k in 0..rem.len() {
                    if rem[k] > 0.0 && hi_ms[ids[k].0] <= now_ms + 1e-9 && k + 1 < rem.len() {
                        rem[k + 1] += rem[k];
                        rem[k] = 0.0;
                    }
                }
                let rem_total: f64 = rem.iter().sum();
                // Expected remaining workload: what is left of the ACEC
                // after the observed prefix, capped by what can still
                // execute.
                let rem_avg = (task.acec().as_cycles() - executed).clamp(0.0, rem_total);
                let fills = fill_amounts(&rem, rem_avg);
                for ((id, r), a) in ids.iter().zip(&rem).zip(fills) {
                    rem_w_ms[id.0] = r / fmax;
                    a_ms[id.0] = a / fmax;
                }
            }
        }

        let live: Vec<usize> = (0..m)
            .filter(|&u| rem_w_ms[u] > 1e-12 && hi_ms[u] > now_ms + 1e-9)
            .collect();
        let opt_live = live.clone();
        let last_hi_ms = opt_live.last().map(|&u| hi_ms[u]).unwrap_or(0.0);
        RemainingInstance {
            now_ms,
            cpu: cpu.clone(),
            fmax,
            lo_ms,
            hi_ms,
            rem_w_ms,
            a_ms,
            c_eff,
            static_ends_ms,
            live,
            opt_live,
            last_hi_ms,
        }
    }

    /// Restricts the NLP to the first `horizon` live sub-instances (a
    /// receding horizon); `0` means unlimited. The tail keeps the
    /// caller's current end times, and the last in-horizon end time may
    /// not stretch past its static end (so the tail's slack is
    /// preserved). [`RemainingInstance::energy_of`] and
    /// [`RemainingInstance::feasible`] always evaluate the *full* chain,
    /// so acceptance decisions still see tail effects.
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        if horizon > 0 && horizon < self.live.len() {
            self.opt_live = self.live[..horizon].to_vec();
            let last = *self.opt_live.last().expect("horizon > 0");
            self.last_hi_ms = self.hi_ms[last].min(self.static_ends_ms[last].max(self.lo_ms[last]));
        }
        self
    }

    /// The boundary time (the re-optimization origin).
    pub fn now(&self) -> Time {
        Time::from_ms(self.now_ms)
    }

    /// Number of sub-instances with remaining work and an open window.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of end-time variables the NLP will optimize.
    pub fn opt_count(&self) -> usize {
        self.opt_live.len()
    }

    /// `true` when nothing is left to optimize.
    pub fn is_settled(&self) -> bool {
        self.opt_live.is_empty()
    }

    /// The static schedule's end times (ms), one per sub-instance.
    pub fn static_ends_ms(&self) -> &[f64] {
        &self.static_ends_ms
    }

    /// Warm-start end times: the static schedule's ends projected onto
    /// the remaining problem — clamped into `[max(lo, prev + R̂ᵣₑₘ), L]`
    /// along the live chain so the start is (near-)feasible.
    pub fn warm_ends_ms(&self) -> Vec<f64> {
        let mut ends = Vec::new();
        self.warm_ends_into(&mut ends);
        ends
    }

    /// [`RemainingInstance::warm_ends_ms`] into a caller-owned buffer:
    /// clears `out`, fills it with the projected warm start. Boundary
    /// solves run thousands of times per simulation; reusing one buffer
    /// keeps the warm-start projection off the allocator's hot path.
    pub fn warm_ends_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.static_ends_ms);
        self.repair(out);
    }

    /// Exact-ifies candidate end times in place along the live chain:
    /// clamps into windows, enforces monotonicity and the worst-case fit
    /// `e_u ≥ max(r_u, e_prev) + R̂_u^rem/f_max` wherever the window
    /// permits. Returns the worst residual violation (ms); `> tol` means
    /// the candidate must be rejected.
    pub fn repair(&self, ends_ms: &mut [f64]) -> f64 {
        let mut prev = self.now_ms;
        let mut worst = 0.0f64;
        for (k, &u) in self.live.iter().enumerate() {
            let hi = if k + 1 == self.opt_live.len() && self.opt_live.len() < self.live.len() {
                self.last_hi_ms
            } else {
                self.hi_ms[u]
            };
            let need = self.lo_ms[u].max(prev) + self.rem_w_ms[u];
            let e = ends_ms[u].max(need).min(hi.max(self.lo_ms[u]));
            worst = worst.max(need - e);
            ends_ms[u] = e;
            prev = e;
        }
        worst
    }

    /// `true` when `ends_ms` survives the exact worst-case chain check
    /// within `tol_ms`: every live sub-instance retires its remaining
    /// worst-case budget at `f_max` by its end time, inside its window.
    pub fn feasible(&self, ends_ms: &[f64], tol_ms: f64) -> bool {
        let mut prev = self.now_ms;
        for &u in &self.live {
            let e = ends_ms[u];
            if e > self.hi_ms[u] + tol_ms || e < self.lo_ms[u] - tol_ms {
                return false;
            }
            if self.lo_ms[u].max(prev) + self.rem_w_ms[u] > e + tol_ms {
                return false;
            }
            prev = e;
        }
        true
    }

    /// Exact model energy of running the greedy rule with the given end
    /// times over the *expected* remaining workloads — the quantity the
    /// `ReOpt` policy compares before adopting a candidate. Mirrors
    /// [`crate::trace::evaluate_trace`] restricted to the remaining chain
    /// (including saturation at `f_max`).
    pub fn energy_of(&self, ends_ms: &[f64]) -> f64 {
        let mut energy = 0.0f64;
        let mut prev_finish = self.now_ms;
        for &u in &self.live {
            let a = self.a_ms[u];
            let s = prev_finish.max(self.lo_ms[u]);
            if a <= 0.0 {
                continue;
            }
            let window = ends_ms[u] - s;
            let speed = if window > 0.0 {
                Freq::from_cycles_per_ms(self.rem_w_ms[u] * self.fmax / window)
            } else {
                self.cpu.f_max()
            };
            let (v, _) = self.cpu.volt_for_speed_clamped(speed);
            let f_actual = self
                .cpu
                .freq_at(v)
                .expect("clamped voltage is in range")
                .as_cycles_per_ms();
            let cycles = a * self.fmax;
            energy += self
                .cpu
                .energy(self.c_eff[u], v, Cycles::from_cycles(cycles))
                .as_units();
            prev_finish = s + cycles / f_actual;
        }
        energy
    }

    /// A canonical encoding of everything that determines the solve
    /// result: the boundary time, the horizon, and each live
    /// sub-instance's identity, remaining budget and expected share.
    /// Callers combine it with a fingerprint of the (schedule, processor)
    /// pair to key a solver cache; equal keys guarantee bit-identical
    /// [`synthesize_remaining`] outcomes.
    pub fn cache_key(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(3 * self.live.len() + 2);
        key.push(self.now_ms.to_bits());
        key.push(self.opt_live.len() as u64);
        for &u in &self.live {
            key.push(u as u64);
            key.push(self.rem_w_ms[u].to_bits());
            key.push(self.a_ms[u].to_bits());
        }
        key
    }
}

/// The boundary NLP: end times of the in-horizon live sub-instances,
/// minimizing the greedy model energy of the expected remaining workload
/// subject to the exact worst-case fit constraints. Budgets are fixed —
/// the engine enforces the static schedule's worst-case budgets, so only
/// the speed profile (equivalently the end times) is re-optimized online.
pub(crate) struct RemainingProblem<'a> {
    rem: &'a RemainingInstance,
    /// Full-length starting end times, **borrowed** from the caller's
    /// buffer: the per-solve sub-vector used to exist twice (collected
    /// here, cloned again by `initial_point`) — now the only
    /// materialization is the one `initial_point` hands the solver.
    warm_full: &'a [f64],
    norm: f64,
    eps_t: f64,
    eps_w: f64,
    /// The objective kernel's per-link record, reused by every
    /// evaluation of the solve.
    links: RefCell<Vec<LinkTape>>,
}

/// Adjoint destination of the boundary chain: only end times are
/// variables (budgets and expected shares are constants).
struct Ends<'a>(&'a mut [f64]);

impl ChainGrad for Ends<'_> {
    fn end(&mut self, k: usize, d: f64) {
        self.0[k] += d;
    }
    fn share(&mut self, _: usize, _: f64) {}
    fn budget(&mut self, _: usize, _: f64) {}
}

impl<'a> RemainingProblem<'a> {
    pub(crate) fn new(rem: &'a RemainingInstance, warm_full: &'a [f64]) -> Self {
        let vmax = rem.cpu.vmax().as_volts();
        let norm = rem
            .opt_live
            .iter()
            .map(|&u| rem.c_eff[u] * vmax * vmax * rem.rem_w_ms[u] * rem.fmax)
            .sum::<f64>()
            .max(1e-12);
        RemainingProblem {
            rem,
            warm_full,
            norm,
            eps_t: 1e-6,
            eps_w: 1e-9,
            links: RefCell::new(Vec::with_capacity(rem.opt_live.len())),
        }
    }
}

impl ConstrainedProblem for RemainingProblem<'_> {
    fn dim(&self) -> usize {
        self.rem.opt_live.len()
    }

    fn build<'g>(&self, g: &'g Graph, x: &[Expr<'g>], smoothing: f64) -> ProblemExprs<'g> {
        let rem = self.rem;
        let n = rem.opt_live.len();
        let mut inequalities = Vec::with_capacity(4 * n);
        let mut prev: Option<Expr<'g>> = None;
        for (k, &u) in rem.opt_live.iter().enumerate() {
            let lo = rem.lo_ms[u];
            let hi = if k + 1 == n && n < rem.live.len() {
                rem.last_hi_ms
            } else {
                rem.hi_ms[u]
            };
            let w = rem.rem_w_ms[u];
            inequalities.push(lo - x[k]); // e ≥ max(r, now)
            inequalities.push(x[k] - hi); // e ≤ L
            let prev_e = prev.unwrap_or_else(|| g.constant(rem.now_ms));
            inequalities.push(w - (x[k] - prev_e)); // fits after predecessor
            inequalities.push(w + lo - x[k]); // fits after its own release
            prev = Some(x[k]);
        }

        // Greedy chain energy over the expected remaining workload.
        let mut energy = g.constant(0.0);
        let mut f_prev = g.constant(rem.now_ms);
        for (k, &u) in rem.opt_live.iter().enumerate() {
            let a = rem.a_ms[u];
            let w = rem.rem_w_ms[u];
            let s = smax_const(f_prev, rem.lo_ms[u], smoothing);
            let gap = x[k] - s;
            let denom = smax_const(gap, self.eps_t, smoothing) + self.eps_t;
            let speed = g.constant(w * rem.fmax) / denom;
            let v = voltage_for_speed(&rem.cpu, speed, smoothing);
            energy = energy + rem.c_eff[u] * v.sqr() * (a * rem.fmax);
            let rho = a / (w + self.eps_w);
            f_prev = s + rho * (x[k] - s);
        }

        ProblemExprs {
            objective: energy / self.norm,
            inequalities,
            equalities: Vec::new(),
        }
    }

    fn linear_constraints(&self) -> Option<LinearConstraints> {
        // All four fit/window families are linear in the end times; the
        // row order mirrors `build` exactly (the [`auglag::solve_seeded`]
        // ν vectors the warm-carry path replays are indexed by it).
        let rem = self.rem;
        let n = rem.opt_live.len();
        let mut ineq = SparseLinear::new();
        for (k, &u) in rem.opt_live.iter().enumerate() {
            let lo = rem.lo_ms[u];
            let hi = if k + 1 == n && n < rem.live.len() {
                rem.last_hi_ms
            } else {
                rem.hi_ms[u]
            };
            let w = rem.rem_w_ms[u];
            ineq.push_row(&[(k, -1.0)], lo); // e ≥ max(r, now)
            ineq.push_row(&[(k, 1.0)], -hi); // e ≤ L
            if k == 0 {
                ineq.push_row(&[(k, -1.0)], w + rem.now_ms); // fits after predecessor
            } else {
                ineq.push_row(&[(k, -1.0), (k - 1, 1.0)], w);
            }
            ineq.push_row(&[(k, -1.0)], w + lo); // fits after its own release
        }
        Some(LinearConstraints {
            ineq,
            eq: SparseLinear::new(),
        })
    }

    fn objective(&self, x: &[f64], smoothing: f64, grad: Option<&mut [f64]>) -> f64 {
        let rem = self.rem;
        let chain = Chain {
            cpu: &rem.cpu,
            fmax: rem.fmax,
            eps_t: self.eps_t,
            eps_w: self.eps_w,
            origin: rem.now_ms,
            start: StartMax::Floor,
            basis_is_share: false,
        };
        let link = |k: usize| {
            let u = rem.opt_live[k];
            LinkIn {
                lo: rem.lo_ms[u],
                c_eff: rem.c_eff[u],
                e: x[k],
                a: rem.a_ms[u],
                w: rem.rem_w_ms[u],
            }
        };
        let mut links = self.links.borrow_mut();
        let energy = chain.forward(smoothing, x.len(), link, &mut links);
        if let Some(grad) = grad {
            grad.fill(0.0);
            chain.reverse(1.0 / self.norm, &links, &mut Ends(grad));
        }
        energy / self.norm
    }

    fn initial_point(&self) -> Vec<f64> {
        self.rem
            .opt_live
            .iter()
            .map(|&u| self.warm_full[u])
            .collect()
    }
}

/// Options for one boundary re-solve.
#[derive(Debug, Clone)]
pub struct ReoptOptions {
    /// Augmented-Lagrangian configuration. The default is deliberately
    /// small: boundary solves start from a feasible, near-optimal warm
    /// point and only refine it.
    pub auglag: AugLagConfig,
    /// Tolerance (ms) for the exact feasibility gate applied to the
    /// repaired candidate. The default (`1e-5` ms) sits an order of
    /// magnitude above the solver's violation tolerance and corresponds
    /// to fractions of a cycle at any realistic clock — below the
    /// completion dust the simulation engine already absorbs.
    pub accept_tol_ms: f64,
}

impl Default for ReoptOptions {
    fn default() -> Self {
        ReoptOptions {
            auglag: AugLagConfig {
                outer_iters: 5,
                mu_init: 100.0,
                mu_growth: 10.0,
                mu_max: 1e8,
                violation_tol: 1e-6,
                violation_shrink: 0.25,
                smoothing_init: 1e-3,
                smoothing_final: 1e-7,
                smoothing_decay: 0.1,
                inner: LbfgsConfig {
                    memory: 8,
                    max_iters: 40,
                    grad_tol: 1e-4,
                    f_tol_rel: 1e-12,
                    ..LbfgsConfig::default()
                },
            },
            accept_tol_ms: 1e-5,
        }
    }
}

impl ReoptOptions {
    /// A cold-solve budget: what a boundary solve needs when it *cannot*
    /// be warm-started (it must first find feasibility). Used as the
    /// baseline in the `reopt` bench; the warm default beats it by well
    /// over the 5× the speed mandate asks for.
    pub fn cold() -> Self {
        let mut o = ReoptOptions::default();
        o.auglag.outer_iters = 18;
        o.auglag.smoothing_init = 1e-2;
        o.auglag.smoothing_decay = 0.25;
        o.auglag.inner.max_iters = 250;
        o.auglag.inner.grad_tol = 1e-6;
        o
    }
}

/// Outcome of one boundary re-solve.
#[derive(Debug, Clone)]
pub struct ReoptOutcome {
    /// End times (ms) for *all* sub-instances: re-optimized on the live
    /// horizon, the warm-start base everywhere else.
    pub ends_ms: Vec<f64>,
    /// Exact model energy of the repaired candidate over the expected
    /// remaining workload ([`RemainingInstance::energy_of`]).
    pub predicted_energy: Energy,
    /// `true` when the repaired candidate passed the exact worst-case
    /// chain gate — only then may a runtime adopt it.
    pub feasible: bool,
    /// Live sub-instances at this boundary.
    pub live: usize,
    /// Objective/gradient evaluations the solver spent.
    pub evaluations: usize,
    /// Whether the solver reported constraint convergence.
    pub converged: bool,
}

/// The state one boundary solve hands the next: the solved end times
/// plus the augmented-Lagrangian inequality multipliers, keyed by the
/// sub-instances they were solved for. Successive boundaries shrink the
/// live set and shift `now`, but the active constraint structure is
/// nearly identical — so the previous multipliers, remapped by
/// sub-instance, let a *single* warm solve replace the two-solve
/// multi-start fan-out most of the time
/// ([`synthesize_remaining_best_carry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmCarry {
    /// Full-length end times of the carrying solve — the next
    /// boundary's starting point.
    pub ends_ms: Vec<f64>,
    /// Total-order sub-instance indices the multipliers belong to (the
    /// carrying solve's in-horizon live set, ascending).
    pub subs: Vec<usize>,
    /// PHR inequality multipliers, four per entry of `subs` in
    /// constraint build order (lower window, upper window, chain fit,
    /// release fit).
    pub nu: Vec<f64>,
}

/// Outcome of [`synthesize_remaining_best_carry`].
#[derive(Debug, Clone)]
pub struct CarrySolve {
    /// The winning solve.
    pub outcome: ReoptOutcome,
    /// Carry state for the *next* boundary (always from the winning
    /// solve, whether carried or multi-start).
    pub carry: WarmCarry,
    /// `true` when the carried warm solve passed the gate and the
    /// multi-start fan-out was skipped.
    pub carried: bool,
}

/// One boundary solve: owns its starting point, optionally seeds the
/// inequality multipliers, returns the outcome plus the final
/// multipliers (empty when the boundary is settled and no NLP ran).
fn solve_live(
    rem: &RemainingInstance,
    mut ends: Vec<f64>,
    nu0: Option<&[f64]>,
    options: &ReoptOptions,
) -> (ReoptOutcome, Vec<f64>) {
    // Project the starting point onto the feasible set first: a feasible
    // start keeps the multiplier loop quiet and is most of the warm-start
    // speedup.
    let start_residual = rem.repair(&mut ends);
    if rem.is_settled() {
        let energy = rem.energy_of(&ends);
        let outcome = ReoptOutcome {
            feasible: start_residual <= options.accept_tol_ms
                && rem.feasible(&ends, options.accept_tol_ms),
            predicted_energy: Energy::from_units(energy),
            ends_ms: ends,
            live: rem.live_count(),
            evaluations: 0,
            converged: true,
        };
        return (outcome, Vec::new());
    }
    let result = {
        let problem = RemainingProblem::new(rem, &ends);
        auglag::solve_seeded(&problem, &options.auglag, nu0)
    };
    for (k, &u) in rem.opt_live.iter().enumerate() {
        ends[u] = result.x[k];
    }
    let residual = rem.repair(&mut ends);
    let feasible = residual <= options.accept_tol_ms && rem.feasible(&ends, options.accept_tol_ms);
    let energy = rem.energy_of(&ends);
    let outcome = ReoptOutcome {
        ends_ms: ends,
        predicted_energy: Energy::from_units(energy),
        feasible,
        live: rem.live_count(),
        evaluations: result.evaluations,
        converged: result.converged,
    };
    (outcome, result.nu)
}

/// Re-synthesizes the remaining schedule's end times, warm-started from
/// the static schedule's ends projected onto the boundary state
/// ([`RemainingInstance::warm_ends_ms`]).
///
/// Deterministic: equal `rem` (compare [`RemainingInstance::cache_key`])
/// and equal options yield bit-identical outcomes.
pub fn synthesize_remaining(rem: &RemainingInstance, options: &ReoptOptions) -> ReoptOutcome {
    let mut ends = Vec::new();
    rem.warm_ends_into(&mut ends);
    solve_live(rem, ends, None, options).0
}

/// [`synthesize_remaining`] from an explicit full-length starting point
/// (e.g. [`cold_start_ends_ms`] for the cold baseline, or a runtime's
/// current end times).
pub fn synthesize_remaining_from(
    rem: &RemainingInstance,
    start_ends_ms: &[f64],
    options: &ReoptOptions,
) -> ReoptOutcome {
    solve_live(rem, start_ends_ms.to_vec(), None, options).0
}

/// Multi-start boundary re-solve: one solve warm-started from the
/// static schedule's projected ends, one from the ALAP (latest-feasible,
/// "procrastinating") profile, keeping the lower-energy feasible result.
///
/// The greedy chain objective is non-convex — the compressed profile a
/// worst-case (WCS) schedule warm-starts into and the stretched profile
/// low *expected* energy wants are distinct basins, and a single local
/// solve cannot cross between them. Two cheap solves recover the spread
/// (the online analog of [`crate::synthesize_acs_best`]); the reported
/// `evaluations` is their sum. Deterministic like
/// [`synthesize_remaining`].
pub fn synthesize_remaining_best(rem: &RemainingInstance, options: &ReoptOptions) -> ReoptOutcome {
    synthesize_remaining_best_with_carry(rem, options).0
}

/// [`synthesize_remaining_best`], also returning the winner's
/// [`WarmCarry`] so a runtime (or a solver cache) can seed the next
/// boundary. The outcome is bit-identical to
/// [`synthesize_remaining_best`]: the fan-out never *consumes* carry
/// state, so its result stays a pure function of `(rem, options)` —
/// the property solver caches key on.
pub fn synthesize_remaining_best_with_carry(
    rem: &RemainingInstance,
    options: &ReoptOptions,
) -> (ReoptOutcome, WarmCarry) {
    let mut warm_start = Vec::new();
    rem.warm_ends_into(&mut warm_start);
    let (warm, warm_nu) = solve_live(rem, warm_start, None, options);
    let (mut alap, alap_nu) = solve_live(rem, alap_start_ends_ms(rem), None, options);
    alap.evaluations += warm.evaluations;
    let (best, nu) =
        if alap.feasible && (!warm.feasible || alap.predicted_energy < warm.predicted_energy) {
            (alap, alap_nu)
        } else {
            let mut best = warm;
            best.evaluations = alap.evaluations;
            (best, warm_nu)
        };
    let carry = WarmCarry {
        ends_ms: best.ends_ms.clone(),
        subs: rem.opt_live.clone(),
        nu,
    };
    (best, carry)
}

/// A single warm solve seeded from the previous boundary's
/// [`WarmCarry`]: end times start where the last solve finished, and
/// the inequality multipliers are remapped by sub-instance (subs that
/// left the horizon drop out, new subs enter at zero). Returns the
/// outcome plus the refreshed carry. The caller gates adoption — a
/// carried solve is only trusted under the same exact feasibility check
/// as any other candidate.
pub fn synthesize_remaining_carry(
    rem: &RemainingInstance,
    carry: &WarmCarry,
    options: &ReoptOptions,
) -> (ReoptOutcome, WarmCarry) {
    let mut nu0 = vec![0.0f64; 4 * rem.opt_live.len()];
    let mut j = 0usize;
    for (k, &u) in rem.opt_live.iter().enumerate() {
        while j < carry.subs.len() && carry.subs[j] < u {
            j += 1;
        }
        if j < carry.subs.len() && carry.subs[j] == u && 4 * (j + 1) <= carry.nu.len() {
            nu0[4 * k..4 * (k + 1)].copy_from_slice(&carry.nu[4 * j..4 * (j + 1)]);
        }
    }
    let start = if carry.ends_ms.len() == rem.static_ends_ms.len() {
        carry.ends_ms.clone()
    } else {
        // A carry from a different expansion cannot seed end times;
        // fall back to the projected static warm start.
        rem.warm_ends_ms()
    };
    let (outcome, nu) = solve_live(rem, start, Some(&nu0), options);
    let new_carry = WarmCarry {
        ends_ms: outcome.ends_ms.clone(),
        subs: rem.opt_live.clone(),
        nu,
    };
    (outcome, new_carry)
}

/// The incremental boundary solve: try the carried warm solve first and
/// **skip the multi-start fan-out** when it passes the exact
/// feasibility gate *and* improves on `baseline_energy` by at least
/// `min_rel_gain` (relative). Otherwise fall back to
/// [`synthesize_remaining_best_with_carry`], folding the spent carry
/// evaluations into the reported total. With `carry = None` this *is*
/// the multi-start fan-out.
pub fn synthesize_remaining_best_carry(
    rem: &RemainingInstance,
    carry: Option<&WarmCarry>,
    baseline_energy: f64,
    min_rel_gain: f64,
    options: &ReoptOptions,
) -> CarrySolve {
    let mut spent = 0usize;
    if let Some(c) = carry {
        let (outcome, new_carry) = synthesize_remaining_carry(rem, c, options);
        if outcome.feasible
            && outcome.predicted_energy.as_units() < baseline_energy * (1.0 - min_rel_gain)
        {
            return CarrySolve {
                outcome,
                carry: new_carry,
                carried: true,
            };
        }
        spent = outcome.evaluations;
    }
    let (mut outcome, carry) = synthesize_remaining_best_with_carry(rem, options);
    outcome.evaluations += spent;
    CarrySolve {
        outcome,
        carry,
        carried: false,
    }
}

/// The ALAP starting profile: every in-horizon live end time pushed as
/// late as its window, the worst-case chain and the frozen tail allow
/// (computed by a reverse sweep). This is the "procrastinate, then
/// reclaim" basin the expected-energy objective usually prefers.
pub fn alap_start_ends_ms(rem: &RemainingInstance) -> Vec<f64> {
    let mut ends = rem.static_ends_ms.clone();
    let n = rem.opt_live.len();
    // The first frozen tail sub pins how late the horizon may run.
    let mut cap = if n < rem.live.len() {
        let tail = rem.live[n];
        ends[tail] - rem.rem_w_ms[tail]
    } else {
        f64::INFINITY
    };
    for (k, &u) in rem.opt_live.iter().enumerate().rev() {
        let hi = if k + 1 == n && n < rem.live.len() {
            rem.last_hi_ms
        } else {
            rem.hi_ms[u]
        };
        let e = hi.min(cap).max(rem.lo_ms[u]);
        ends[u] = e;
        cap = e - rem.rem_w_ms[u];
    }
    ends
}

/// A schedule-oblivious starting point for the cold baseline: every live
/// end time pushed as late as its window (and the worst-case chain
/// minimum) allows, mimicking a solver that knows nothing about the
/// static schedule.
pub fn cold_start_ends_ms(rem: &RemainingInstance) -> Vec<f64> {
    let mut ends = rem.static_ends_ms.clone();
    let mut prev = rem.now_ms;
    for &u in &rem.live {
        let lo_eff = rem.lo_ms[u].max(prev);
        let e = (lo_eff + rem.rem_w_ms[u]).max(0.5 * (lo_eff + rem.hi_ms[u]));
        let e = e.min(rem.hi_ms[u]).max(lo_eff);
        ends[u] = e;
        prev = e;
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{synthesize_acs, synthesize_wcs, SynthesisOptions};
    use acs_model::units::{Ticks, Volt};
    use acs_model::{Task, TaskId};
    use acs_power::FreqModel;

    fn motivation() -> (TaskSet, Processor) {
        let mk = |n: &str| {
            Task::builder(n, Ticks::new(20))
                .wcec(Cycles::from_cycles(1000.0))
                .acec(Cycles::from_cycles(500.0))
                .bcec(Cycles::from_cycles(100.0))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![mk("t1"), mk("t2"), mk("t3")]).unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        (set, cpu)
    }

    #[test]
    fn untouched_boundary_mirrors_full_problem() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let rem = RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[]);
        assert_eq!(rem.live_count(), 3);
        assert_eq!(rem.opt_count(), 3);
        assert!(!rem.is_settled());
        // Remaining budgets equal the schedule's (nothing executed).
        for (u, ms) in wcs.milestones().iter().enumerate() {
            assert!(
                (rem.rem_w_ms[u] * rem.fmax - ms.worst_workload.as_cycles()).abs() < 1e-9,
                "sub {u}"
            );
        }
        // Static ends are feasible as-is.
        assert!(rem.feasible(rem.static_ends_ms(), 1e-4));
    }

    #[test]
    fn reopt_of_wcs_ends_recovers_acs_gain() {
        let (set, cpu) = motivation();
        let opts = SynthesisOptions::quick();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let rem = RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[]);
        let before = rem.energy_of(rem.static_ends_ms());
        let out = synthesize_remaining(&rem, &ReoptOptions::default());
        assert!(out.feasible, "candidate must pass the worst-case gate");
        let after = out.predicted_energy.as_units();
        // Paper Fig. 1–2: WCS ends cost ≈7961 on the ACEC trace, the
        // optimum ≈6000 — a ≈24% gap. Online re-opt at t=0 must recover
        // most of it.
        let improvement = 1.0 - after / before;
        assert!(
            improvement > 0.15,
            "before {before}, after {after} (improvement {improvement:.3})"
        );
        // And the result must agree with what offline ACS predicts.
        let acs = synthesize_acs(&set, &cpu, &opts).unwrap();
        let acs_pred = rem.energy_of(
            &acs.milestones()
                .iter()
                .map(|m| m.end_time.as_ms())
                .collect::<Vec<_>>(),
        );
        assert!(after <= acs_pred * 1.05, "reopt {after} vs ACS {acs_pred}");
    }

    #[test]
    fn boundary_after_early_completion_improves_remaining_energy() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        // Task 0 finished early (500 of 1000 cycles) at t = 10/3 ms.
        let progress = vec![InstanceProgress {
            instance: InstanceId {
                task: TaskId(0),
                index: 0,
            },
            executed: Cycles::from_cycles(500.0),
            current_chunk: 0,
            chunk_budget_left: Cycles::from_cycles(500.0),
            released: true,
            done: true,
        }];
        let rem =
            RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(10.0 / 3.0), &progress);
        assert_eq!(rem.live_count(), 2);
        let before = rem.energy_of(rem.static_ends_ms());
        let out = synthesize_remaining(&rem, &ReoptOptions::default());
        assert!(out.feasible);
        assert!(
            out.predicted_energy.as_units() < before,
            "reopt {} vs greedy-on-static {before}",
            out.predicted_energy.as_units()
        );
    }

    #[test]
    fn solve_is_deterministic() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let rem = RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[]);
        let a = synthesize_remaining(&rem, &ReoptOptions::default());
        let b = synthesize_remaining(&rem, &ReoptOptions::default());
        assert_eq!(a.ends_ms, b.ends_ms);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(rem.cache_key(), rem.cache_key());
    }

    #[test]
    fn infeasible_states_are_flagged_not_adopted() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        // A boundary so late that the remaining worst case cannot fit.
        let rem = RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(19.0), &[]);
        let out = synthesize_remaining(&rem, &ReoptOptions::default());
        assert!(!out.feasible);
    }

    #[test]
    fn horizon_truncates_variables_but_not_the_gate() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let rem = RemainingInstance::at_boundary(&wcs, &set, &cpu, Time::from_ms(0.0), &[])
            .with_horizon(1);
        assert_eq!(rem.opt_count(), 1);
        assert_eq!(rem.live_count(), 3);
        let out = synthesize_remaining(&rem, &ReoptOptions::default());
        assert!(out.feasible);
        // The untouched tail keeps its warm (static-projected) ends.
        let warm = rem.warm_ends_ms();
        assert_eq!(out.ends_ms[1], warm[1]);
        assert_eq!(out.ends_ms[2], warm[2]);
    }

    /// A paper-scale fixture: 8 tasks over a uniform 5 ms release grid
    /// (64 sub-instances, like the CNC controller set) with a
    /// handcrafted proportional static schedule, so the test measures
    /// solver cost without paying for a full offline synthesis in debug
    /// builds.
    fn large_with_schedule() -> (TaskSet, Processor, StaticSchedule) {
        let periods = [5u64, 5, 10, 10, 20, 20, 40, 40];
        let fmax = 200.0;
        let per_task_util = 0.65 / periods.len() as f64;
        let tasks: Vec<Task> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let wcec = per_task_util * p as f64 * fmax;
                Task::builder(format!("t{i}"), Ticks::new(p))
                    .wcec(Cycles::from_cycles(wcec))
                    .acec(Cycles::from_cycles(0.45 * wcec))
                    .bcec(Cycles::from_cycles(0.1 * wcec))
                    .build()
                    .unwrap()
            })
            .collect();
        let set = TaskSet::new(tasks).unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let fps =
            acs_preempt::FullyPreemptiveSchedule::expand(&set).expect("uniform grid expansion");
        // Equal budget split per chunk; within each segment, ends stack
        // proportionally across the whole segment — chain-feasible by
        // construction because every segment's load at f_max (65% of the
        // segment) fits its length.
        let m = fps.len();
        let mut budgets = vec![0.0f64; m];
        for (tid, task) in set.iter() {
            for inst in 0..fps.instances_of(tid) {
                let ids: Vec<_> = fps
                    .chunks_of(InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .collect();
                for id in &ids {
                    budgets[id.0] = task.wcec().as_cycles() / ids.len() as f64;
                }
            }
        }
        let mut ends = vec![0.0f64; m];
        for s in 0..fps.grid().segment_count() {
            let subs = fps.segment_subs(s);
            let seg_start = subs[0].window_start.as_ms();
            let seg_len = subs[0].window_span().as_ms();
            let load_ms: f64 = subs.iter().map(|u| budgets[u.id.0] / fmax).sum();
            let scale = seg_len / load_ms.max(1e-12);
            let mut cum = 0.0;
            for u in subs {
                cum += budgets[u.id.0] / fmax;
                ends[u.id.0] = seg_start + cum * scale;
            }
        }
        let milestones: Vec<crate::schedule::Milestone> = fps
            .sub_instances()
            .iter()
            .map(|sub| crate::schedule::Milestone {
                sub: sub.id,
                end_time: Time::from_ms(ends[sub.id.0]),
                worst_workload: Cycles::from_cycles(budgets[sub.id.0]),
                avg_workload: Cycles::from_cycles(0.45 * budgets[sub.id.0]),
            })
            .collect();
        let schedule = StaticSchedule::from_parts(
            fps,
            milestones,
            crate::schedule::ScheduleKind::Custom,
            crate::schedule::SolveDiagnostics {
                converged: true,
                max_violation: 0.0,
                outer_iterations: 0,
                evaluations: 0,
                predicted_avg_energy: Energy::ZERO,
                predicted_worst_energy: Energy::ZERO,
            },
        )
        .unwrap();
        (set, cpu, schedule)
    }

    #[test]
    fn warm_start_beats_cold_start_by_5x() {
        let (set, cpu, schedule) = large_with_schedule();
        // A mid-run boundary: the first instance of `t0` completed early.
        let wcec0 = set.tasks()[0].wcec().as_cycles();
        let progress = vec![InstanceProgress {
            instance: InstanceId {
                task: TaskId(0),
                index: 0,
            },
            executed: Cycles::from_cycles(0.4 * wcec0),
            current_chunk: 0,
            chunk_budget_left: Cycles::from_cycles(0.6 * wcec0),
            released: true,
            done: true,
        }];
        let rem =
            RemainingInstance::at_boundary(&schedule, &set, &cpu, Time::from_ms(2.0), &progress);
        assert!(rem.live_count() > 50, "live = {}", rem.live_count());
        // Static ends from before `now` are stale at a boundary; the warm
        // projection re-chains them into a feasible profile.
        assert!(rem.feasible(&rem.warm_ends_ms(), 1e-6));
        // Warm: the ReOpt policy's production configuration — two
        // warm-started solves over a receding horizon.
        let warm =
            synthesize_remaining_best(&rem.clone().with_horizon(16), &ReoptOptions::default());
        // Cold: schedule-oblivious start, full horizon, the budget needed
        // to reach feasibility from scratch.
        let cold =
            synthesize_remaining_from(&rem, &cold_start_ends_ms(&rem), &ReoptOptions::cold());
        assert!(warm.feasible && cold.feasible);
        // Speed must not come from giving the improvement up: the warm
        // horizon solve has to find a real gain, not return the start.
        let base = rem.energy_of(rem.static_ends_ms());
        let warm_gain = base - rem.energy_of(&warm.ends_ms);
        assert!(
            warm_gain > 0.01 * base,
            "warm gain {warm_gain} vs base {base}"
        );
        // Evaluations are the deterministic proxy for wall clock; the
        // time a boundary solve really costs is perfbench's
        // `reopt.ms_per_lookup` on the `reopt_online` workload.
        assert!(
            5 * warm.evaluations <= cold.evaluations,
            "warm {} vs cold {} evaluations",
            warm.evaluations,
            cold.evaluations
        );
    }

    #[test]
    fn carry_solve_is_cheaper_and_fanout_stays_carry_independent() {
        let (set, cpu, schedule) = large_with_schedule();
        let opts = ReoptOptions::default();
        let rem0 = RemainingInstance::at_boundary(&schedule, &set, &cpu, Time::from_ms(0.0), &[])
            .with_horizon(16);
        // The with-carry fan-out must be bit-identical to the plain one:
        // it never consumes carry state (cache purity).
        let plain = synthesize_remaining_best(&rem0, &opts);
        let (best, carry) = synthesize_remaining_best_with_carry(&rem0, &opts);
        assert_eq!(plain.ends_ms, best.ends_ms);
        assert_eq!(plain.evaluations, best.evaluations);
        assert_eq!(carry.subs, rem0.opt_live);
        assert_eq!(carry.nu.len(), 4 * rem0.opt_live.len());

        // Next boundary: first instance of t0 done early.
        let wcec0 = set.tasks()[0].wcec().as_cycles();
        let progress = vec![InstanceProgress {
            instance: InstanceId {
                task: TaskId(0),
                index: 0,
            },
            executed: Cycles::from_cycles(0.4 * wcec0),
            current_chunk: 0,
            chunk_budget_left: Cycles::from_cycles(0.6 * wcec0),
            released: true,
            done: true,
        }];
        let rem1 =
            RemainingInstance::at_boundary(&schedule, &set, &cpu, Time::from_ms(2.0), &progress)
                .with_horizon(16);
        let (carried, carry1) = synthesize_remaining_carry(&rem1, &carry, &opts);
        let fresh = synthesize_remaining_best(&rem1, &opts);
        assert!(carried.feasible, "carried warm solve must pass the gate");
        assert_eq!(carry1.subs, rem1.opt_live);
        // The whole point: one seeded solve undercuts the two-solve
        // fan-out, at essentially the fan-out's energy.
        assert!(
            carried.evaluations < fresh.evaluations,
            "carried {} vs fan-out {} evaluations",
            carried.evaluations,
            fresh.evaluations
        );
        assert!(
            carried.predicted_energy.as_units() <= fresh.predicted_energy.as_units() * 1.02,
            "carried {} vs fan-out {}",
            carried.predicted_energy.as_units(),
            fresh.predicted_energy.as_units()
        );

        // Gated entry point: with a baseline the carried solve beats,
        // the fan-out is skipped...
        let base = rem1.energy_of(rem1.static_ends_ms());
        let hit = synthesize_remaining_best_carry(&rem1, Some(&carry), base, 0.01, &opts);
        assert!(hit.carried);
        assert_eq!(hit.outcome.ends_ms, carried.ends_ms);
        // ...and with an unbeatable baseline it falls back to the exact
        // fan-out result, folding the spent carry evaluations in.
        let miss = synthesize_remaining_best_carry(&rem1, Some(&carry), 0.0, 0.01, &opts);
        assert!(!miss.carried);
        assert_eq!(miss.outcome.ends_ms, fresh.ends_ms);
        assert_eq!(
            miss.outcome.evaluations,
            fresh.evaluations + carried.evaluations
        );
        // No carry at all degenerates to the plain fan-out.
        let none = synthesize_remaining_best_carry(&rem1, None, base, 0.01, &opts);
        assert!(!none.carried);
        assert_eq!(none.outcome.ends_ms, fresh.ends_ms);
        assert_eq!(none.outcome.evaluations, fresh.evaluations);
    }
}
