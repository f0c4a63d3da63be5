//! Top-level schedule synthesis: ACS (the paper's contribution) and the
//! WCS baseline.

use crate::error::CoreError;
use crate::fill::fill_amounts;
use crate::formulation::{ObjectiveKind, ScheduleProblem};
use crate::schedule::{Milestone, ScheduleKind, SolveDiagnostics, StaticSchedule};
use crate::trace::{self, SpeedBasis};
use crate::verify;
use acs_model::units::{Cycles, Time};
use acs_model::TaskSet;
use acs_opt::auglag::{self, AugLagConfig};
use acs_opt::lbfgs::LbfgsConfig;
use acs_power::Processor;
use acs_preempt::FullyPreemptiveSchedule;

/// Options controlling schedule synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Objective used for ACS synthesis ([`synthesize_wcs`] always uses
    /// [`ObjectiveKind::WorstCase`]).
    pub objective: ObjectiveKind,
    /// Augmented-Lagrangian configuration.
    pub auglag: AugLagConfig,
    /// Cap on sub-instances accepted from the expansion (the paper's
    /// experiments cap at 1000).
    pub sub_instance_cap: usize,
    /// Feasibility tolerance (ms) for the post-solve verification gate.
    pub verify_tol_ms: f64,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            objective: ObjectiveKind::AcecTrace,
            auglag: default_auglag(),
            sub_instance_cap: 100_000,
            verify_tol_ms: 2e-5,
        }
    }
}

impl SynthesisOptions {
    /// Fast, lower-accuracy settings for large experiment sweeps: fewer
    /// outer/inner iterations, looser tolerances. The resulting schedules
    /// remain feasibility-gated (to the looser `1e-5 ms` tolerance, i.e.
    /// sub-microsecond worst-case lateness per sub-instance, absorbed at
    /// runtime by the `vmax` saturation clamp); only optimality degrades
    /// gracefully.
    pub fn quick() -> Self {
        let mut o = SynthesisOptions::default();
        o.auglag.outer_iters = 14;
        o.auglag.inner.max_iters = 120;
        o.auglag.inner.grad_tol = 1e-5;
        // The default profile's 1e-14 effectively disables the
        // stagnation stop; at sweep accuracy an inner solve that twice
        // fails to move the (normalized, O(1)) objective by 1e-9 is
        // done — letting it stop also lets the outer loop's early-break
        // fire instead of running every outer iteration to max_iters.
        o.auglag.inner.f_tol_rel = 1e-9;
        o.auglag.violation_tol = 1e-5;
        o.verify_tol_ms = 1e-4;
        o
    }
}

fn default_auglag() -> AugLagConfig {
    AugLagConfig {
        outer_iters: 22,
        mu_init: 100.0,
        mu_growth: 10.0,
        mu_max: 1e10,
        // Violations are in milliseconds (or ms-at-fmax for workloads);
        // 5e-6 is sub-nanosecond-scale — far below any physical
        // relevance — while sparing a third AL order-of-magnitude push.
        violation_tol: 5e-6,
        violation_shrink: 0.25,
        smoothing_init: 1e-2,
        smoothing_final: 1e-7,
        smoothing_decay: 0.15,
        inner: LbfgsConfig {
            memory: 10,
            max_iters: 250,
            grad_tol: 1e-6,
            f_tol_rel: 1e-14,
            ..LbfgsConfig::default()
        },
    }
}

/// Synthesizes the **ACS** schedule: minimum average-case (per
/// `options.objective`) energy subject to worst-case feasibility.
///
/// ```
/// use acs_core::{synthesize_acs, verify_worst_case, SynthesisOptions};
/// use acs_model::{Task, TaskSet, units::{Cycles, Ticks, Volt}};
/// use acs_power::{FreqModel, Processor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TaskSet::new(vec![
///     Task::builder("t", Ticks::new(10))
///         .wcec(Cycles::from_cycles(300.0))
///         .acec(Cycles::from_cycles(120.0))
///         .bcec(Cycles::from_cycles(30.0))
///         .build()?,
/// ])?;
/// let cpu = Processor::builder(FreqModel::linear(50.0)?)
///     .vmin(Volt::from_volts(0.3)).vmax(Volt::from_volts(4.0)).build()?;
/// let acs = synthesize_acs(&set, &cpu, &SynthesisOptions::quick())?;
/// // One milestone per sub-instance, worst-case feasible by the gate.
/// assert_eq!(acs.milestones().len(), acs.fps().len());
/// assert!(verify_worst_case(&acs, &set, &cpu, 1e-4).is_ok());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates model/expansion errors; [`CoreError::SolveFailed`] when the
/// NLP cannot reach worst-case feasibility (e.g. utilization too close to
/// 1 for the expansion's structure).
pub fn synthesize_acs(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
) -> Result<StaticSchedule, CoreError> {
    synthesize(set, cpu, options, options.objective, ScheduleKind::Acs)
}

/// Synthesizes the **WCS** baseline: minimum worst-case energy, the
/// classic offline approach that ignores workload variation.
///
/// # Errors
///
/// Same as [`synthesize_acs`].
pub fn synthesize_wcs(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
) -> Result<StaticSchedule, CoreError> {
    synthesize(
        set,
        cpu,
        options,
        ObjectiveKind::WorstCase,
        ScheduleKind::Wcs,
    )
}

/// Synthesizes the ACS schedule **warm-started from an existing feasible
/// schedule** (typically the WCS baseline, which the paper's experiments
/// compute anyway). Because the solver keeps the best feasible point it
/// sees — and the warm start is feasible — the result is never worse
/// than `warm` under the ACS objective. Recommended for large task sets
/// where the cold-started solve may under-converge.
///
/// # Errors
///
/// Same as [`synthesize_acs`]; additionally
/// [`CoreError::ScheduleMismatch`] if `warm` was built for a different
/// expansion.
pub fn synthesize_acs_warm(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
    warm: &StaticSchedule,
) -> Result<StaticSchedule, CoreError> {
    synthesize_warm(
        set,
        cpu,
        options,
        warm,
        options.objective,
        ScheduleKind::Acs,
    )
}

/// Synthesizes the WCS baseline **warm-started from an existing feasible
/// schedule** (typically a previous WCS solve). This is the continuation
/// analog of [`synthesize_acs_warm`]: it gives the worst-case objective
/// the same second solve the ACS side gets, which matters when comparing
/// the two approaches at matched solver effort (e.g. the
/// `no_variation_means_no_advantage` end-to-end test, where ACEC = WCEC
/// makes both objectives identical and any residual gap is pure solver
/// under-convergence).
///
/// # Errors
///
/// Same as [`synthesize_acs_warm`].
pub fn synthesize_wcs_warm(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
    warm: &StaticSchedule,
) -> Result<StaticSchedule, CoreError> {
    synthesize_warm(
        set,
        cpu,
        options,
        warm,
        ObjectiveKind::WorstCase,
        ScheduleKind::Wcs,
    )
}

/// Shared warm-start path: checks `warm` against the current expansion,
/// packs its milestones into the solver's `x0` layout (`[e_u; R̂_u/f_max]`),
/// and re-solves under the given objective/kind.
fn synthesize_warm(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
    warm: &StaticSchedule,
    objective: ObjectiveKind,
    kind: ScheduleKind,
) -> Result<StaticSchedule, CoreError> {
    let fps = FullyPreemptiveSchedule::expand_capped(set, options.sub_instance_cap)?;
    if warm.fps() != &fps {
        return Err(CoreError::ScheduleMismatch {
            reason: "warm-start schedule built for a different expansion".into(),
        });
    }
    let m = fps.len();
    let fmax = cpu.f_max().as_cycles_per_ms();
    let mut x0 = vec![0.0; 2 * m];
    for (u, ms) in warm.milestones().iter().enumerate() {
        x0[u] = ms.end_time.as_ms();
        x0[m + u] = ms.worst_workload.as_cycles() / fmax;
    }
    synthesize_with_start(set, cpu, options, objective, kind, Some(x0))
}

/// Multi-start ACS synthesis: solves from both the heuristic cold start
/// and the `warm` schedule, returning whichever feasible result predicts
/// less average-case energy. The NLP is non-convex (the fill rule and the
/// `max` recursions create distinct basins), and neither start dominates
/// in practice; two starts cost one extra solve and recover most of the
/// spread. Never worse than `warm` under the ACS objective.
///
/// # Errors
///
/// Same as [`synthesize_acs_warm`]; only fails when *both* starts fail.
pub fn synthesize_acs_best(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
    warm: &StaticSchedule,
) -> Result<StaticSchedule, CoreError> {
    let from_warm = synthesize_acs_warm(set, cpu, options, warm);
    let from_cold = synthesize_acs(set, cpu, options);
    if warm_start_wins(&from_warm, &from_cold) {
        from_warm
    } else {
        from_cold
    }
}

/// The pick [`synthesize_acs_best`] makes between its two solves of one
/// task set: `true` when the warm-start result is kept. Of two feasible
/// schedules the one predicting less average-case energy wins, and the
/// warm start wins a tie; a lone success wins; when both fail, the warm
/// start's error is kept. Callers that run the two solves apart pick
/// with this, so they keep the same schedule bit for bit.
pub fn warm_start_wins<E>(
    warm: &Result<StaticSchedule, E>,
    cold: &Result<StaticSchedule, E>,
) -> bool {
    match (warm, cold) {
        (Ok(a), Ok(b)) => {
            a.diagnostics().predicted_avg_energy <= b.diagnostics().predicted_avg_energy
        }
        (Err(_), Ok(_)) => false,
        (_, Err(_)) => true,
    }
}

fn synthesize(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
    objective: ObjectiveKind,
    kind: ScheduleKind,
) -> Result<StaticSchedule, CoreError> {
    synthesize_with_start(set, cpu, options, objective, kind, None)
}

fn synthesize_with_start(
    set: &TaskSet,
    cpu: &Processor,
    options: &SynthesisOptions,
    objective: ObjectiveKind,
    kind: ScheduleKind,
    warm_start: Option<Vec<f64>>,
) -> Result<StaticSchedule, CoreError> {
    set.check_utilization(cpu.f_max())?;
    let fps = FullyPreemptiveSchedule::expand_capped(set, options.sub_instance_cap)?;
    let mut problem = ScheduleProblem::new(set, cpu, &fps, objective);
    if let Some(x0) = warm_start {
        problem.set_warm_start(x0);
    }
    let result = auglag::solve(&problem, &options.auglag);
    // Acceptance is gated end-to-end by the worst-case verifier below
    // (after the repair pass), not by the solver's internal violation
    // measure: the repair exactly restores workload conservation and
    // window containment, so marginal AL residuals (nanosecond-scale gap
    // violations) are judged where they matter — on the final artifact.

    let m = fps.len();
    let fmax = cpu.f_max().as_cycles_per_ms();
    let mut ends: Vec<f64> = result.x[..m].to_vec();
    let mut w_ms: Vec<f64> = result.x[m..].to_vec();

    // ---- exact-ification ("repair") ----
    // Clamp workloads to non-negative and rescale each instance to
    // conserve its WCEC exactly; clamp end times into windows and enforce
    // the total order. Residual speed overshoots stay below the verifier
    // tolerance because the solver converged.
    for w in w_ms.iter_mut() {
        *w = w.max(0.0);
    }
    for (tid, task) in set.iter() {
        let budget = task.wcec().as_cycles() / fmax;
        for inst in 0..fps.instances_of(tid) {
            let ids: Vec<_> = fps
                .chunks_of(acs_preempt::InstanceId {
                    task: tid,
                    index: inst,
                })
                .collect();
            let sum: f64 = ids.iter().map(|id| w_ms[id.0]).sum();
            if sum > 1e-15 {
                let scale = budget / sum;
                for id in &ids {
                    w_ms[id.0] *= scale;
                }
            } else {
                // Degenerate: all shares vanished; give everything to the
                // last chunk (latest window).
                let share = budget / ids.len() as f64;
                for id in &ids {
                    w_ms[id.0] = share;
                }
            }
        }
    }
    let mut prev = 0.0f64;
    for (u, sub) in fps.sub_instances().iter().enumerate() {
        let lo = sub.window_start.as_ms();
        let hi = sub.window_end.as_ms();
        ends[u] = ends[u].clamp(lo, hi).max(prev);
        prev = ends[u];
    }
    // Forward feasibility sweep: cap every chunk's budget by the exact
    // worst-case window the runtime will see (`e_u − max(r_u, prev
    // end)`) and push any ε-excess into the instance's next chunk. The
    // solver leaves gap violations of up to ~1e-5 ms; without this sweep
    // a near-saturated chunk under-executes by a fraction of a cycle at
    // runtime and the leftover — deprioritized by RM — can complete
    // milliseconds after its deadline. Excess that reaches past an
    // instance's last chunk stays there and is judged by the worst-case
    // trace gate below.
    {
        // Next chunk (same instance) in total order, if any.
        let mut next_chunk: Vec<Option<usize>> = vec![None; m];
        for (tid, _task) in set.iter() {
            for inst in 0..fps.instances_of(tid) {
                let ids: Vec<_> = fps
                    .chunks_of(acs_preempt::InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .collect();
                for pair in ids.windows(2) {
                    next_chunk[pair[0].0] = Some(pair[1].0);
                }
            }
        }
        let mut prev_end = 0.0f64;
        for (u, sub) in fps.sub_instances().iter().enumerate() {
            let start = prev_end.max(sub.window_start.as_ms());
            let cap = (ends[u] - start).max(0.0);
            if w_ms[u] > cap {
                if let Some(next) = next_chunk[u] {
                    w_ms[next] += w_ms[u] - cap;
                    w_ms[u] = cap;
                }
                // A final chunk keeps its overflow (conservation!); the
                // runtime saturates at f_max and the worst-case trace
                // gate below decides whether the resulting lateness is
                // acceptable.
            }
            prev_end = if w_ms[u] > 1e-15 { ends[u] } else { start };
        }
    }

    // ---- assemble milestones ----
    let mut milestones = Vec::with_capacity(m);
    let mut avg = vec![0.0f64; m];
    for (tid, task) in set.iter() {
        for inst in 0..fps.instances_of(tid) {
            let ids: Vec<_> = fps
                .chunks_of(acs_preempt::InstanceId {
                    task: tid,
                    index: inst,
                })
                .collect();
            let budgets: Vec<f64> = ids.iter().map(|id| w_ms[id.0] * fmax).collect();
            let fills = fill_amounts(&budgets, task.acec().as_cycles());
            for (id, a) in ids.iter().zip(fills) {
                avg[id.0] = a;
            }
        }
    }
    for u in 0..m {
        milestones.push(Milestone {
            sub: acs_preempt::SubInstanceId(u),
            end_time: Time::from_ms(ends[u]),
            worst_workload: Cycles::from_cycles(w_ms[u] * fmax),
            avg_workload: Cycles::from_cycles(avg[u]),
        });
    }

    let mut schedule = StaticSchedule::from_parts(
        fps,
        milestones,
        kind,
        SolveDiagnostics {
            converged: result.converged,
            max_violation: result.max_violation,
            outer_iterations: result.outer_iterations,
            evaluations: result.evaluations,
            predicted_avg_energy: acs_model::units::Energy::ZERO,
            predicted_worst_energy: acs_model::units::Energy::ZERO,
        },
    )?;

    // ---- acceptance gate + predicted energies ----
    let report =
        verify::verify_worst_case(&schedule, set, cpu, options.verify_tol_ms).map_err(|viols| {
            CoreError::SolveFailed {
                max_violation: viols
                    .iter()
                    .map(|v| v.amount.abs())
                    .fold(result.max_violation, f64::max),
            }
        })?;
    // Second, end-to-end gate: replay the exact all-WCEC runtime trace
    // and require every *deadline* to hold. The structural check above
    // is per-milestone; sub-tolerance residuals can compound along the
    // chain (the runtime saturates at f_max and pushes lateness
    // downstream), and only this walk sees the accumulation.
    let wc_trace = trace::evaluate_trace(
        &schedule,
        set,
        cpu,
        &trace::wcec_totals(set),
        SpeedBasis::WorstRemaining,
    );
    let mut deadline_lateness = 0.0f64;
    for (u, sub) in schedule.fps().sub_instances().iter().enumerate() {
        deadline_lateness =
            deadline_lateness.max((wc_trace.finish[u] - sub.instance_deadline).as_ms());
    }
    // Residual lateness corresponds to `lateness · f_max` cycles of
    // unbudgeted work; the simulator treats ≤ 1e-2 cycles as complete
    // (its `CYCLE_EPS`), so accept exactly up to that equivalence and
    // reject anything the runtime could observe.
    let lateness_tol_ms = 1e-2 / cpu.f_max().as_cycles_per_ms();
    if deadline_lateness > lateness_tol_ms {
        return Err(CoreError::SolveFailed {
            max_violation: deadline_lateness,
        });
    }
    let avg_outcome = trace::evaluate_trace(
        &schedule,
        set,
        cpu,
        &trace::acec_totals(set),
        SpeedBasis::WorstRemaining,
    );
    let diags = SolveDiagnostics {
        converged: true,
        max_violation: result.max_violation,
        outer_iterations: result.outer_iterations,
        evaluations: result.evaluations,
        predicted_avg_energy: avg_outcome.energy,
        predicted_worst_energy: report.energy,
    };
    schedule = StaticSchedule::from_parts(
        schedule.fps().clone(),
        schedule.milestones().to_vec(),
        kind,
        diags,
    )?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Ticks, Volt};
    use acs_model::Task;
    use acs_power::FreqModel;

    /// The paper's motivational system: 3 equal-period tasks in a 20 ms
    /// frame (degenerates to non-preemptive sequential scheduling).
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
    fn wcs_on_motivation_matches_uniform_speed() {
        let (set, cpu) = motivation();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        // Classic result: equal speed throughout, ends at 6.67/13.33/20 ms.
        let ends: Vec<f64> = sched
            .milestones()
            .iter()
            .map(|m| m.end_time.as_ms())
            .collect();
        assert!((ends[0] - 20.0 / 3.0).abs() < 0.15, "ends = {ends:?}");
        assert!((ends[1] - 40.0 / 3.0).abs() < 0.15);
        assert!((ends[2] - 20.0).abs() < 0.15);
        // Worst-case energy ≈ 27000 (3 V each).
        let e = sched.diagnostics().predicted_worst_energy.as_units();
        assert!((e - 27000.0).abs() < 150.0, "worst energy = {e}");
    }

    #[test]
    fn acs_on_motivation_beats_wcs_average() {
        let (set, cpu) = motivation();
        let opts = SynthesisOptions::default();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let acs = synthesize_acs(&set, &cpu, &opts).unwrap();
        let e_wcs = wcs.diagnostics().predicted_avg_energy.as_units();
        let e_acs = acs.diagnostics().predicted_avg_energy.as_units();
        // Paper: 7961 vs 6000 — ACS saves ≈ 24%. Accept ≥ 15% to leave
        // slack for solver tolerance.
        let improvement = 1.0 - e_acs / e_wcs;
        assert!(
            improvement > 0.15,
            "ACS {e_acs} vs WCS {e_wcs} (improvement {improvement:.3})"
        );
        // Both remain worst-case feasible.
        assert!(verify::verify_worst_case(&acs, &set, &cpu, 1e-5).is_ok());
        assert!(verify::verify_worst_case(&wcs, &set, &cpu, 1e-5).is_ok());
    }

    #[test]
    fn acs_end_times_stretch_toward_paper_schedule() {
        let (set, cpu) = motivation();
        let acs = synthesize_acs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let ends: Vec<f64> = acs
            .milestones()
            .iter()
            .map(|m| m.end_time.as_ms())
            .collect();
        // The paper's hand schedule is {10, 15, 20}; the optimum must
        // stretch T1 well beyond its WCS end 6.67 (and T2 beyond 13.3).
        assert!(ends[0] > 8.0, "ends = {ends:?}");
        assert!(ends[1] > 14.0, "ends = {ends:?}");
        assert!((ends[2] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn preemptive_set_synthesizes_feasibly() {
        let set = TaskSet::new(vec![
            Task::builder("hi", Ticks::new(4))
                .wcec(Cycles::from_cycles(100.0))
                .acec(Cycles::from_cycles(40.0))
                .bcec(Cycles::from_cycles(10.0))
                .build()
                .unwrap(),
            Task::builder("lo", Ticks::new(8))
                .wcec(Cycles::from_cycles(150.0))
                .acec(Cycles::from_cycles(60.0))
                .bcec(Cycles::from_cycles(15.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let opts = SynthesisOptions::default();
        let acs = synthesize_acs(&set, &cpu, &opts).unwrap();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        assert!(verify::verify_worst_case(&acs, &set, &cpu, 1e-5).is_ok());
        assert!(acs.diagnostics().predicted_avg_energy <= wcs.diagnostics().predicted_avg_energy);
        // Conservation: every instance's chunks sum to WCEC.
        for (tid, task) in set.iter() {
            for inst in 0..acs.fps().instances_of(tid) {
                let sum: f64 = acs
                    .milestones_of(acs_preempt::InstanceId {
                        task: tid,
                        index: inst,
                    })
                    .iter()
                    .map(|m| m.worst_workload.as_cycles())
                    .sum();
                assert!((sum - task.wcec().as_cycles()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn overutilized_set_is_rejected() {
        let set = TaskSet::new(vec![Task::builder("x", Ticks::new(10))
            .wcec(Cycles::from_cycles(2001.0))
            .build()
            .unwrap()])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let err = synthesize_acs(&set, &cpu, &SynthesisOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::Model(_)), "{err}");
    }

    #[test]
    fn sub_instance_cap_respected() {
        let (set, cpu) = motivation();
        let opts = SynthesisOptions {
            sub_instance_cap: 2,
            ..Default::default()
        };
        let err = synthesize_acs(&set, &cpu, &opts).unwrap_err();
        assert!(matches!(err, CoreError::Preempt(_)));
    }

    #[test]
    fn quick_options_still_feasible() {
        let (set, cpu) = motivation();
        let acs = synthesize_acs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        assert!(verify::verify_worst_case(&acs, &set, &cpu, 1e-4).is_ok());
    }
}
