//! The voltage-scheduling NLP (paper §3.2).
//!
//! Decision variables, for the `M` sub-instances of the fully preemptive
//! expansion in total order:
//!
//! * `e_u` — scheduled end time of sub-instance `u` (ms). Shared between
//!   the average- and worst-case scenarios (paper: "the end-times are the
//!   same for both").
//! * `w_u` — worst-case workload share `R̂_u`, *scaled to milliseconds at
//!   maximum speed* (`w_u = R̂_u / f_max`) so every variable is O(window
//!   length) and the problem is well conditioned.
//!
//! Constraints (all linear):
//!
//! * window: `r_u ≤ e_u ≤ L_u`;
//! * non-negativity: `w_u ≥ 0`;
//! * worst-case feasibility: `w_u ≤ e_u − e_{u−1}` and `w_u ≤ e_u − r_u`
//!   — together they guarantee `R̂_u` cycles fit at `f_max` after the
//!   worst-case start `ŝ_u = max(r_u, e_{u−1})` (paper constraint (8));
//! * conservation: `Σ_k w_{(i,j),k} = WCEC_i / f_max` per instance
//!   (paper constraints (10)–(11)).
//!
//! The objective is the energy of the greedy runtime's trace when every
//! instance draws a prescribed workload (ACEC by default): the fill rule
//! (paper (12)–(14), here an exact clamp instead of the indicator-variable
//! encoding), the average start-time recursion `s̄_u = max(r_u, f̄_{u−1})`
//! (paper constraint (9) models this with a slack bound; we use the exact
//! greedy recursion), and the per-cycle energy `C·V(σ_u)²` at the dispatch
//! speed `σ_u`. Piecewise constructs are softened with a temperature the
//! augmented-Lagrangian driver anneals to zero.

use crate::chain::{Chain, ChainGrad, LinkIn, LinkTape, StartMax};
use crate::quantile::truncated_normal_strata;
use crate::trace::SpeedBasis;
use acs_model::TaskSet;
use acs_opt::problem::{ConstrainedProblem, LinearConstraints, SparseLinear};
use acs_opt::tape::{relu, softplus};
use acs_power::Processor;
use acs_preempt::{FullyPreemptiveSchedule, InstanceId};
use std::cell::RefCell;
use std::ops::Range;

/// Objective flavor for schedule synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Energy of the greedy runtime trace when every instance takes its
    /// ACEC — the paper's formulation with the exact greedy start-time
    /// recursion. The default for ACS.
    AcecTrace,
    /// Like [`ObjectiveKind::AcecTrace`] but pretends the runtime
    /// stretches the *average* workload over each window (a literal
    /// reading of the paper's eq. (4)); kept for the objective ablation.
    PaperIdealSpeed,
    /// Energy when every instance takes its WCEC — the classic
    /// worst-case-only static schedule (the paper's WCS baseline).
    WorstCase,
    /// Probability-weighted energy over `n` equal-mass workload quantiles
    /// of each task's truncated normal `N(ACEC, ((WCEC−BCEC)/6)²)`
    /// (paper §3.2's "probability weighted workload" remark; the strata
    /// are coupled comonotonically across tasks).
    Quantiles(usize),
}

/// One deterministic workload scenario entering the objective.
#[derive(Debug, Clone)]
struct Scenario {
    weight: f64,
    /// Per-task instance workload, scaled to ms at `f_max`.
    totals_ms: Vec<f64>,
    basis: SpeedBasis,
}

/// The NLP instance for one (task set, processor, expansion) triple.
///
/// The solver evaluates the objective through a hand-written kernel
/// ([`ConstrainedProblem::objective`], in `crates/core/src/chain.rs`)
/// whose tests check it bit for bit against the objective's tape
/// statement. The kernel's buffers live in the problem, so it is not
/// `Sync`.
#[derive(Debug)]
pub struct ScheduleProblem<'a> {
    set: &'a TaskSet,
    cpu: &'a Processor,
    fps: &'a FullyPreemptiveSchedule,
    scenarios: Vec<Scenario>,
    /// Objective normalization (worst-case all-`vmax` energy).
    norm: f64,
    /// Guard added to time denominators (ms).
    eps_t: f64,
    /// Guard added to workload denominators (ms at `f_max`).
    eps_w: f64,
    /// Optional warm-start point overriding the built-in heuristic.
    warm_start: Option<Vec<f64>>,
    /// The constraint rows ([`schedule_rows`]).
    rows: LinearConstraints,
    /// Window start (ms) and task capacitance per sub-instance.
    link_consts: Vec<(f64, f64)>,
    /// The fill rule's walk: per instance, its task index and the range
    /// of `fill_subs` holding its chunks in order.
    fill_instances: Vec<(usize, Range<usize>)>,
    fill_subs: Vec<usize>,
    scratch: RefCell<Scratch>,
}

/// The objective kernel's buffers, sized once by [`ScheduleProblem::new`]
/// so evaluations allocate nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// Executed share per sub-instance under the fill rule.
    exec: Vec<f64>,
    /// Adjoint of `exec`.
    exec_adj: Vec<f64>,
    fill: Vec<FillTape>,
    links: Vec<LinkTape>,
    /// Greedy-trace energy per workload scenario.
    energies: Vec<f64>,
}

/// Local slopes of one chunk's fill clamp, read back by the reverse
/// sweep.
#[derive(Debug, Clone, Copy, Default)]
struct FillTape {
    /// Slope of the budget bound (`softplus(w)` or `relu(w)`).
    d_w: f64,
    /// Slope of the remaining workload (`softplus(rem)` or `relu(rem)`).
    d_rem: f64,
    /// Smooth: slope of `softplus(rem − softplus(w))`. Exact: 1 when the
    /// min takes the remaining workload, 0 when it takes the budget.
    d_cut: f64,
}

/// Adjoint destinations of the offline chain: end times and budgets are
/// variables; executed shares feed back into the fill rule.
struct ScheduleGrad<'a> {
    ends: &'a mut [f64],
    budgets: &'a mut [f64],
    shares: &'a mut [f64],
}

impl ChainGrad for ScheduleGrad<'_> {
    fn end(&mut self, k: usize, d: f64) {
        self.ends[k] += d;
    }
    fn share(&mut self, k: usize, d: f64) {
        self.shares[k] += d;
    }
    fn budget(&mut self, k: usize, d: f64) {
        self.budgets[k] += d;
    }
}

impl<'a> ScheduleProblem<'a> {
    /// Builds the problem for the given objective.
    pub fn new(
        set: &'a TaskSet,
        cpu: &'a Processor,
        fps: &'a FullyPreemptiveSchedule,
        objective: ObjectiveKind,
    ) -> Self {
        let fmax = cpu.f_max().as_cycles_per_ms();
        let scale = |cycles: f64| cycles / fmax;
        let scenarios = match objective {
            ObjectiveKind::AcecTrace => vec![Scenario {
                weight: 1.0,
                totals_ms: set
                    .tasks()
                    .iter()
                    .map(|t| scale(t.acec().as_cycles()))
                    .collect(),
                basis: SpeedBasis::WorstRemaining,
            }],
            ObjectiveKind::PaperIdealSpeed => vec![Scenario {
                weight: 1.0,
                totals_ms: set
                    .tasks()
                    .iter()
                    .map(|t| scale(t.acec().as_cycles()))
                    .collect(),
                basis: SpeedBasis::AverageWork,
            }],
            ObjectiveKind::WorstCase => vec![Scenario {
                weight: 1.0,
                totals_ms: set
                    .tasks()
                    .iter()
                    .map(|t| scale(t.wcec().as_cycles()))
                    .collect(),
                basis: SpeedBasis::WorstRemaining,
            }],
            ObjectiveKind::Quantiles(n) => {
                let n = n.max(1);
                let per_task: Vec<Vec<f64>> = set
                    .tasks()
                    .iter()
                    .map(|t| {
                        let sd = (t.wcec().as_cycles() - t.bcec().as_cycles()) / 6.0;
                        truncated_normal_strata(
                            t.acec().as_cycles(),
                            sd,
                            t.bcec().as_cycles(),
                            t.wcec().as_cycles(),
                            n,
                        )
                        .into_iter()
                        .map(|s| scale(s.value))
                        .collect()
                    })
                    .collect();
                (0..n)
                    .map(|j| Scenario {
                        weight: 1.0 / n as f64,
                        totals_ms: per_task.iter().map(|q| q[j]).collect(),
                        basis: SpeedBasis::WorstRemaining,
                    })
                    .collect()
            }
        };
        let vmax = cpu.vmax().as_volts();
        let norm: f64 = set
            .iter()
            .map(|(id, t)| {
                t.c_eff() * vmax * vmax * t.wcec().as_cycles() * fps.instances_of(id) as f64
            })
            .sum::<f64>()
            .max(1e-12);
        let m = fps.len();
        let link_consts = fps
            .sub_instances()
            .iter()
            .map(|sub| {
                let c_eff = set.task(sub.instance.task).c_eff();
                (sub.window_start.as_ms(), c_eff)
            })
            .collect();
        let mut fill_instances = Vec::new();
        let mut fill_subs = Vec::with_capacity(m);
        for (tid, _) in set.iter() {
            for index in 0..fps.instances_of(tid) {
                let first = fill_subs.len();
                fill_subs.extend(
                    fps.chunks_of(InstanceId { task: tid, index })
                        .map(|id| id.0),
                );
                fill_instances.push((tid.0, first..fill_subs.len()));
            }
        }
        let scratch = RefCell::new(Scratch {
            exec: vec![0.0; m],
            exec_adj: vec![0.0; m],
            fill: vec![FillTape::default(); m],
            links: Vec::with_capacity(m),
            energies: vec![0.0; scenarios.len()],
        });
        ScheduleProblem {
            set,
            cpu,
            fps,
            scenarios,
            norm,
            eps_t: 1e-6,
            eps_w: 1e-9,
            warm_start: None,
            rows: schedule_rows(set, fps, fmax),
            link_consts,
            fill_instances,
            fill_subs,
            scratch,
        }
    }

    /// Overrides the starting point of the solve (layout:
    /// `[e_0..e_{M−1}, R̂_0/f_max..R̂_{M−1}/f_max]`). Typically the
    /// solution of a previous (e.g. WCS) synthesis — since the
    /// augmented-Lagrangian driver keeps the best feasible point seen,
    /// warm-starting ACS from a feasible WCS schedule guarantees the
    /// result is no worse than that schedule under the ACS objective.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match `2 · num_subs()`.
    pub fn set_warm_start(&mut self, x0: Vec<f64>) {
        assert_eq!(
            x0.len(),
            2 * self.fps.len(),
            "warm start dimension mismatch"
        );
        self.warm_start = Some(x0);
    }

    /// Number of sub-instances `M` (the problem has `2M` variables).
    pub fn num_subs(&self) -> usize {
        self.fps.len()
    }

    /// The fill rule's executed share per sub-instance for one
    /// scenario's per-task totals: each chunk executes
    /// `clamp(total − prefix, 0, max(w, 0))`.
    fn fill_forward(
        &self,
        totals: &[f64],
        w: &[f64],
        tau: f64,
        exec: &mut [f64],
        fill: &mut [FillTape],
    ) {
        for (task, chunks) in &self.fill_instances {
            let total = totals[*task];
            let mut prefix = 0.0;
            for &u in &self.fill_subs[chunks.clone()] {
                let rem = total - prefix;
                (exec[u], fill[u]) = if tau > 0.0 {
                    let (hi, d_w) = softplus(w[u], tau);
                    let (sx, d_rem) = softplus(rem, tau);
                    let (cut, d_cut) = softplus(rem - hi, tau);
                    (sx - cut, FillTape { d_w, d_rem, d_cut })
                } else {
                    let (rx, d_rem) = relu(rem);
                    let (hi, d_w) = relu(w[u]);
                    // The exact min: ties take the remaining workload.
                    let (x, d_cut) = if rx <= hi { (rx, 1.0) } else { (hi, 0.0) };
                    (x, FillTape { d_w, d_rem, d_cut })
                };
                prefix += w[u];
            }
        }
    }

    /// Reverse sweep of [`Self::fill_forward`]: feeds the executed
    /// shares' adjoints back into the budgets.
    fn fill_reverse(&self, tau: f64, fill: &[FillTape], exec_adj: &[f64], budgets: &mut [f64]) {
        for (_, chunks) in self.fill_instances.iter().rev() {
            // Adjoint of the prefix after the current chunk (the last
            // chunk's is unused, hence zero).
            let mut adj_prefix = 0.0;
            for &u in self.fill_subs[chunks.clone()].iter().rev() {
                let t = fill[u];
                // prefix' = prefix + w
                let adj_next = adj_prefix;
                adj_prefix = 0.0;
                if adj_next != 0.0 {
                    adj_prefix += adj_next;
                    budgets[u] += adj_next;
                }
                let ax = exec_adj[u];
                let mut adj_rem = 0.0;
                if ax != 0.0 && tau > 0.0 {
                    // x = softplus(rem) − softplus(rem − softplus(w))
                    let adj_cut = -ax * t.d_cut;
                    if adj_cut != 0.0 {
                        adj_rem += adj_cut;
                        budgets[u] += -adj_cut * t.d_w;
                    }
                    adj_rem += ax * t.d_rem;
                } else if ax != 0.0 {
                    // x = min(relu(rem), relu(w))
                    let adj_hi = ax * (1.0 - t.d_cut);
                    if adj_hi != 0.0 {
                        budgets[u] += adj_hi * t.d_w;
                    }
                    let adj_rx = ax * t.d_cut;
                    if adj_rx != 0.0 {
                        adj_rem = adj_rx * t.d_rem;
                    }
                }
                // rem = total − prefix
                if adj_rem != 0.0 {
                    adj_prefix -= adj_rem;
                }
            }
        }
    }
}

/// The NLP's constraint rows (module docs). Per sub-instance, in total
/// order, five inequalities: window start, window end, non-negative
/// budget, fit after the predecessor, fit after the release. Then one
/// conservation equality per instance, task by task.
fn schedule_rows(set: &TaskSet, fps: &FullyPreemptiveSchedule, fmax: f64) -> LinearConstraints {
    let m = fps.len();
    let mut ineq = SparseLinear::new();
    for (u, sub) in fps.sub_instances().iter().enumerate() {
        let r = sub.window_start.as_ms();
        let l = sub.window_end.as_ms();
        ineq.push_row(&[(u, -1.0)], r); // e ≥ r
        ineq.push_row(&[(u, 1.0)], -l); // e ≤ L
        ineq.push_row(&[(m + u, -1.0)], 0.0); // w ≥ 0
        if u == 0 {
            ineq.push_row(&[(m + u, 1.0), (u, -1.0)], 0.0); // fits after prev
        } else {
            ineq.push_row(&[(m + u, 1.0), (u, -1.0), (u - 1, 1.0)], 0.0);
        }
        ineq.push_row(&[(m + u, 1.0), (u, -1.0)], r); // fits after release
    }
    let mut eq = SparseLinear::new();
    let mut terms = Vec::new();
    for (tid, task) in set.iter() {
        let budget_ms = task.wcec().as_cycles() / fmax;
        for index in 0..fps.instances_of(tid) {
            terms.clear();
            terms.extend(
                fps.chunks_of(InstanceId { task: tid, index })
                    .map(|id| (m + id.0, 1.0)),
            );
            eq.push_row(&terms, -budget_ms);
        }
    }
    LinearConstraints { ineq, eq }
}

impl ConstrainedProblem for ScheduleProblem<'_> {
    fn dim(&self) -> usize {
        2 * self.fps.len()
    }

    fn constraints(&self) -> &LinearConstraints {
        &self.rows
    }

    fn objective(&self, x: &[f64], smoothing: f64, mut grad: Option<&mut [f64]>) -> f64 {
        let m = self.fps.len();
        let (e, w) = x.split_at(m);
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            exec,
            exec_adj,
            fill,
            links,
            energies,
        } = &mut *scratch;
        if let Some(grad) = grad.as_deref_mut() {
            grad.fill(0.0);
        }
        // Later scenarios first: the tape's reverse sweep adds their
        // contributions to each variable first.
        for (i, scenario) in self.scenarios.iter().enumerate().rev() {
            self.fill_forward(&scenario.totals_ms, w, smoothing, exec, fill);
            let chain = Chain {
                cpu: self.cpu,
                fmax: self.cpu.f_max().as_cycles_per_ms(),
                eps_t: self.eps_t,
                eps_w: self.eps_w,
                origin: 0.0,
                start: StartMax::Exact,
                basis_is_share: matches!(scenario.basis, SpeedBasis::AverageWork),
            };
            let link = |u: usize| LinkIn {
                lo: self.link_consts[u].0,
                c_eff: self.link_consts[u].1,
                e: e[u],
                a: exec[u],
                w: w[u],
            };
            energies[i] = chain.forward(smoothing, m, link, links);
            if let Some(grad) = grad.as_deref_mut() {
                let (ends, budgets) = grad.split_at_mut(m);
                exec_adj.fill(0.0);
                let mut sink = ScheduleGrad {
                    ends,
                    budgets,
                    shares: exec_adj,
                };
                chain.reverse((1.0 / self.norm) * scenario.weight, links, &mut sink);
                self.fill_reverse(smoothing, fill, exec_adj, budgets);
            }
        }
        let mut objective = 0.0;
        for (scenario, energy) in self.scenarios.iter().zip(energies.iter()) {
            objective += energy * scenario.weight;
        }
        objective / self.norm
    }

    fn initial_point(&self) -> Vec<f64> {
        if let Some(x0) = &self.warm_start {
            return x0.clone();
        }
        let m = self.fps.len();
        let fmax = self.cpu.f_max().as_cycles_per_ms();
        let mut x = vec![0.0; 2 * m];
        // End times: stack sub-instances evenly inside each segment.
        for s in 0..self.fps.grid().segment_count() {
            let subs = self.fps.segment_subs(s);
            let n = subs.len().max(1) as f64;
            for (i, sub) in subs.iter().enumerate() {
                let a = sub.window_start.as_ms();
                let b = sub.window_end.as_ms();
                x[sub.id.0] = a + (b - a) * (i as f64 + 1.0) / n;
            }
        }
        // Workloads: split each instance's budget across chunks in
        // proportion to the chunk windows.
        for (tid, task) in self.set.iter() {
            let budget_ms = task.wcec().as_cycles() / fmax;
            for inst in 0..self.fps.instances_of(tid) {
                let ids: Vec<_> = self
                    .fps
                    .chunks_of(acs_preempt::InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .collect();
                let spans: Vec<f64> = ids
                    .iter()
                    .map(|id| self.fps.sub(*id).window_span().as_ms())
                    .collect();
                let total: f64 = spans.iter().sum();
                for (id, span) in ids.iter().zip(&spans) {
                    x[m + id.0] = budget_ms * span / total.max(1e-12);
                }
            }
        }
        x
    }
}

/// The objective on the AD tape: the readable statement of what the
/// kernel computes, and the reference `chain.rs`'s bitwise tests check
/// the kernel against.
#[cfg(test)]
mod tape_reference {
    use super::*;
    use crate::chain::reference::{smax, smax_const, voltage_for_speed, TapeObjective};
    use acs_opt::tape::{Expr, Graph};

    impl TapeObjective for ScheduleProblem<'_> {
        fn tape_objective<'g>(&self, g: &'g Graph, x: &[Expr<'g>], smoothing: f64) -> Expr<'g> {
            let (e, w) = x.split_at(self.fps.len());
            let mut objective = g.constant(0.0);
            for scenario in &self.scenarios {
                let energy = self.scenario_energy(g, e, w, scenario, smoothing);
                objective = objective + scenario.weight * energy;
            }
            objective / self.norm
        }
    }

    impl ScheduleProblem<'_> {
        /// Energy of one scenario's greedy trace, as an expression.
        fn scenario_energy<'g>(
            &self,
            g: &'g Graph,
            e: &[Expr<'g>],
            w: &[Expr<'g>],
            scenario: &Scenario,
            tau: f64,
        ) -> Expr<'g> {
            let m = self.fps.len();
            let fmax = self.cpu.f_max().as_cycles_per_ms();

            // Fill rule: executed share per sub-instance (ms at f_max).
            let mut exec: Vec<Option<Expr<'g>>> = vec![None; m];
            for (tid, _task) in self.set.iter() {
                for index in 0..self.fps.instances_of(tid) {
                    let total = g.constant(scenario.totals_ms[tid.0]);
                    let mut prefix = g.constant(0.0);
                    for id in self.fps.chunks_of(InstanceId { task: tid, index }) {
                        let wk = w[id.0];
                        let rem = total - prefix;
                        exec[id.0] = Some(clamp01(rem, wk, tau));
                        prefix = prefix + wk;
                    }
                }
            }

            // Greedy start-time recursion along the total order.
            let mut energy = g.constant(0.0);
            let mut f_prev = g.constant(0.0);
            for (u, sub) in self.fps.sub_instances().iter().enumerate() {
                let r = g.constant(sub.window_start.as_ms());
                let s = smax(f_prev, r, tau);
                let a = exec[u].expect("fill visited every sub-instance");
                let gap = e[u] - s;
                let denom = smax_const(gap, self.eps_t, tau) + self.eps_t;
                let basis_w = match scenario.basis {
                    SpeedBasis::WorstRemaining => w[u],
                    SpeedBasis::AverageWork => a,
                };
                let speed = basis_w * fmax / denom;
                let v = voltage_for_speed(self.cpu, speed, tau);
                let c_eff = self.set.task(sub.instance.task).c_eff();
                energy = energy + c_eff * v.sqr() * (a * fmax);
                let rho = a / (w[u] + self.eps_w);
                f_prev = s + rho * (e[u] - s);
            }
            energy
        }
    }

    /// `clamp(x, 0, max(hi, 0))`: smooth when `tau > 0`, exact otherwise.
    /// The upper bound is sanitized to be non-negative so transiently
    /// negative budgets cannot produce negative energy.
    fn clamp01<'g>(x: Expr<'g>, hi: Expr<'g>, tau: f64) -> Expr<'g> {
        if tau > 0.0 {
            let hi_pos = hi.softplus(tau);
            x.softplus(tau) - (x - hi_pos).softplus(tau)
        } else {
            x.relu().min_exact(hi.relu())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Cycles, Ticks, Volt};
    use acs_model::Task;
    use acs_opt::numgrad::max_gradient_error;
    use acs_power::FreqModel;

    fn fixture() -> (TaskSet, Processor) {
        let set = TaskSet::new(vec![
            Task::builder("a", Ticks::new(4))
                .wcec(Cycles::from_cycles(60.0))
                .acec(Cycles::from_cycles(30.0))
                .bcec(Cycles::from_cycles(6.0))
                .build()
                .unwrap(),
            Task::builder("b", Ticks::new(8))
                .wcec(Cycles::from_cycles(80.0))
                .acec(Cycles::from_cycles(40.0))
                .bcec(Cycles::from_cycles(8.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.1))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        (set, cpu)
    }

    #[test]
    fn dimensions_and_counts() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        assert_eq!(p.dim(), 2 * fps.len());
        let rows = p.constraints();
        assert_eq!(rows.ineq.rows(), 5 * fps.len());
        // instances: a has 2, b has 1 => 3 equalities.
        assert_eq!(rows.eq.rows(), 3);
        let value = p.objective(&p.initial_point(), 1e-3, None);
        assert!(value.is_finite());
        assert!(value > 0.0);
    }

    #[test]
    fn initial_point_satisfies_conservation() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        let x0 = p.initial_point();
        let rows = p.constraints();
        for eq in rows.eq.iter() {
            assert!(eq.value(&x0).abs() < 1e-9, "eq violated: {}", eq.value(&x0));
        }
        // Windows respected at the initial point.
        for (i, ineq) in rows.ineq.iter().enumerate() {
            // Only the window/non-negativity families are guaranteed.
            if i % 5 < 3 {
                assert!(ineq.value(&x0) <= 1e-9, "ineq {i}: {}", ineq.value(&x0));
            }
        }
    }

    /// The largest relative error of the kernel's gradient at `x0`
    /// against central differences of its value.
    fn kernel_gradient_error(p: &ScheduleProblem<'_>, x0: &[f64], smoothing: f64) -> f64 {
        let mut analytic = vec![0.0; x0.len()];
        p.objective(x0, smoothing, Some(&mut analytic));
        max_gradient_error(|x| p.objective(x, smoothing, None), x0, &analytic, 1e-7)
    }

    #[test]
    fn objective_gradient_matches_finite_differences() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        for kind in [
            ObjectiveKind::AcecTrace,
            ObjectiveKind::PaperIdealSpeed,
            ObjectiveKind::WorstCase,
            ObjectiveKind::Quantiles(3),
        ] {
            let p = ScheduleProblem::new(&set, &cpu, &fps, kind);
            let err = kernel_gradient_error(&p, &p.initial_point(), 1e-2);
            assert!(err < 1e-4, "{kind:?}: gradient error {err}");
        }
    }

    #[test]
    fn alpha_model_gradient_matches_finite_differences() {
        let (set, _) = fixture();
        let cpu = Processor::builder(FreqModel::alpha(120.0, Volt::from_volts(0.4), 1.6).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        let err = kernel_gradient_error(&p, &p.initial_point(), 1e-2);
        assert!(err < 1e-3, "alpha gradient error {err}");
    }

    #[test]
    fn worst_case_objective_exceeds_average() {
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let x0 = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace).initial_point();
        let value = |kind: ObjectiveKind| {
            ScheduleProblem::new(&set, &cpu, &fps, kind).objective(&x0, 0.0, None)
        };
        assert!(value(ObjectiveKind::WorstCase) > value(ObjectiveKind::AcecTrace));
        // The ideal-speed reading can only reduce energy further.
        assert!(value(ObjectiveKind::PaperIdealSpeed) <= value(ObjectiveKind::AcecTrace) + 1e-12);
    }

    #[test]
    fn quantile_objective_brackets_acec() {
        // With a near-symmetric distribution, the quantile-averaged
        // energy is at least the single-ACEC energy (Jensen: energy is
        // convex in the workload) but far below the worst case.
        let (set, cpu) = fixture();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let x0 = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace).initial_point();
        let value = |kind: ObjectiveKind| {
            ScheduleProblem::new(&set, &cpu, &fps, kind).objective(&x0, 0.0, None)
        };
        let acec = value(ObjectiveKind::AcecTrace);
        let quant = value(ObjectiveKind::Quantiles(8));
        let worst = value(ObjectiveKind::WorstCase);
        assert!(quant >= acec - 1e-12, "quant={quant} acec={acec}");
        assert!(quant < worst);
    }
}
