//! Simulation results.

use acs_model::units::{Energy, TimeSpan};

/// Total energy split by where it was spent: switching capacitance
/// (dynamic), leakage while executing (static) and idle draw. All three
/// are zero-cost views over counters the engine maintains anyway; with
/// the paper's lossless processor (`static_power = idle_power = 0`) the
/// static and idle terms are exactly zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Dynamic (switching) energy: `Σ C_eff·V²·N` over execution slices.
    pub dynamic: Energy,
    /// Static (leakage) energy: `Σ P_static(V)·Δt` over execution slices.
    pub static_: Energy,
    /// Idle energy: `P_idle · idle_time`.
    pub idle: Energy,
}

impl EnergyBreakdown {
    /// Sum of all three components.
    pub fn total(&self) -> Energy {
        self.dynamic + self.static_ + self.idle
    }
}

/// The per-run counters, each declared once: its doc, `name: Type`, and
/// how two runs' values fold into one (`sum` or `max`).
///
/// `run` counters exist per simulation run only. `cell` counters are
/// also folded over a campaign cell's seeds into `acs_runtime`'s
/// `CellStats`, under the same names. The macro hands both lists to
/// `$then!`, which generates fields and folds from them: [`SimReport`]
/// and `CellStats` are its two expansions. Adding a counter is one entry
/// here, plus one result column in `acs_runtime::sink` if the counter is
/// exported.
#[macro_export]
macro_rules! run_counters {
    ($then:ident) => {
        $then! {
            run {
                /// Total energy consumed (dynamic + static + idle +
                /// transition overhead).
                energy: Energy, sum;
                /// Static (leakage) energy drawn while executing — part
                /// of [`SimReport::energy`].
                static_energy: Energy, sum;
                /// Energy drawn while idle (zero under the paper's
                /// shutdown assumption) — part of [`SimReport::energy`].
                idle_energy: Energy, sum;
                /// Total time the processor was idle (shut down, zero
                /// energy).
                idle_time: TimeSpan, sum;
                /// Total time the processor executed cycles.
                busy_time: TimeSpan, sum;
                /// Number of hyper-periods simulated.
                hyper_periods: u64, sum;
                /// Events the engine handled: event-queue pops
                /// (releases, chunk wakeups) plus dispatched execution
                /// slices. Deterministic for a given cell — the
                /// differential suite pins it as an invariant. The
                /// legacy chunk-scan oracle reports 0.
                events_handled: u64, sum;
                /// High-water mark of the engine's event queue (max
                /// events pending at once within any one hyper-period).
                /// The legacy chunk-scan oracle reports 0.
                event_queue_peak: usize, max;
            }
            cell {
                /// Number of job completions.
                jobs_completed: usize, sum;
                /// Number of jobs that missed their deadline.
                deadline_misses: usize, sum;
                /// The subset of `deadline_misses` from *aperiodic* jobs
                /// — releases produced by a non-periodic arrival source
                /// (sporadic/Poisson/MMPP generators or trace replay),
                /// which run on synthetic per-job plans rather than the
                /// static schedule. Always zero on periodic cells.
                misses_aperiodic: usize, sum;
                /// Worst completion lateness past a deadline observed, in
                /// ms (0 when every job met its deadline; includes
                /// sub-tolerance lateness not counted in
                /// `deadline_misses`).
                worst_lateness_ms: f64, max;
                /// Dispatches where the requested speed exceeded `f_max`
                /// (the processor saturated at `vmax`).
                saturated_dispatches: usize, sum;
                /// Number of voltage transitions (changes between
                /// consecutive execution slices).
                voltage_switches: usize, sum;
                /// Number of preemptions: dispatches that displaced a
                /// different, still-unfinished job. On per-frame
                /// (equal-period) sets the RM and EDF scheduling classes
                /// produce identical counts.
                preemptions: usize, sum;
                /// Number of migrations: dispatches where a job resumed
                /// on a different core than the one it last executed on,
                /// counted on the core it arrived on. Always zero on one
                /// core and for partitioned multiprocessor runs (jobs are
                /// pinned to their core); only global dispatch
                /// (`Simulator::with_cores`) moves jobs between cores.
                migrations: usize, sum;
                /// Workload draws clamped into `[0, WCEC]`.
                clamped_draws: usize, sum;
                /// Boundary states for which the policy's online solver
                /// was consulted (0 unless the policy re-optimizes, such
                /// as `reopt`; see `SolverStats`).
                solver_lookups: usize, sum;
                /// Solver lookups answered from the shared solver cache.
                /// When one cache is shared across parallel runs, this
                /// count (alone) may vary with thread interleaving;
                /// energies and deadline statistics never do.
                solver_cache_hits: usize, sum;
                /// Boundary re-solves actually executed.
                boundary_resolves: usize, sum;
                /// Re-solved candidates that passed the feasibility/energy
                /// gate and were adopted — distinguishes "solver ran but
                /// found nothing worth adopting" from "the policy actively
                /// reshaped the schedule".
                resolves_adopted: usize, sum;
                /// Solver lookups answered by an incremental carried warm
                /// solve (previous boundary's multipliers seeded one
                /// solve that passed the gate), skipping cache and
                /// fan-out alike. The three mechanisms partition the
                /// lookups: `solver_lookups == warm_carry_hits +
                /// solver_cache_hits + boundary_resolves`.
                warm_carry_hits: usize, sum;
            }
        }
    };
}

/// Folds one run's counter into an accumulator, as [`run_counters!`]
/// declares it: `sum` adds, `max` keeps the larger value.
#[doc(hidden)]
#[macro_export]
macro_rules! fold_counter {
    (sum, $acc:expr, $other:expr) => {
        $acc += $other
    };
    (max, $acc:expr, $other:expr) => {
        $acc = $acc.max($other)
    };
}

macro_rules! sim_report {
    (
        run { $($(#[$run_doc:meta])* $run:ident: $run_ty:ty, $run_fold:ident;)* }
        cell { $($(#[$cell_doc:meta])* $cell:ident: $cell_ty:ty, $cell_fold:ident;)* }
    ) => {
        /// Aggregate outcome of a simulation run. Every field but
        /// `per_task_energy` is a counter declared in [`run_counters!`].
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct SimReport {
            /// Dynamic energy split per task (indexed by `TaskId`).
            pub per_task_energy: Vec<Energy>,
            $($(#[$run_doc])* pub $run: $run_ty,)*
            $($(#[$cell_doc])* pub $cell: $cell_ty,)*
        }

        impl SimReport {
            /// Accumulates another report (hyper-period into run totals,
            /// cores into a machine), folding as [`run_counters!`] says.
            pub fn absorb(&mut self, other: &SimReport) {
                $(crate::fold_counter!($run_fold, self.$run, other.$run);)*
                $(crate::fold_counter!($cell_fold, self.$cell, other.$cell);)*
                for (a, b) in self.per_task_energy.iter_mut().zip(&other.per_task_energy) {
                    *a += *b;
                }
            }
        }
    };
}

run_counters!(sim_report);

impl SimReport {
    /// An empty report (used as the accumulator identity).
    pub fn empty(tasks: usize) -> Self {
        SimReport {
            per_task_energy: vec![Energy::ZERO; tasks],
            ..SimReport::default()
        }
    }

    /// Resets every counter to the [`SimReport::empty`] state for
    /// `tasks` tasks, reusing the `per_task_energy` allocation. The
    /// engine recycles one report per hyper-period instead of
    /// allocating a fresh one.
    pub fn reset(&mut self, tasks: usize) {
        let mut per_task_energy = std::mem::take(&mut self.per_task_energy);
        per_task_energy.clear();
        per_task_energy.resize(tasks, Energy::ZERO);
        *self = SimReport {
            per_task_energy,
            ..SimReport::default()
        };
    }

    /// Mean energy per hyper-period.
    pub fn energy_per_hyper_period(&self) -> Energy {
        if self.hyper_periods == 0 {
            Energy::ZERO
        } else {
            self.energy / self.hyper_periods as f64
        }
    }

    /// `true` when no deadline was missed.
    pub fn all_deadlines_met(&self) -> bool {
        self.deadline_misses == 0
    }

    /// Energy split dynamic vs static vs idle. The dynamic component is
    /// everything not attributed to leakage or idle draw (it includes
    /// voltage-transition overhead energy, which is switching work).
    pub fn breakdown(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            dynamic: self.energy - self.static_energy - self.idle_energy,
            static_: self.static_energy,
            idle: self.idle_energy,
        }
    }
}

/// Relative energy improvement of `candidate` over `baseline`, as used in
/// the paper's Fig. 6 (positive = candidate is better).
pub fn improvement_over(baseline: Energy, candidate: Energy) -> f64 {
    if baseline.as_units() <= 0.0 {
        0.0
    } else {
        1.0 - candidate / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = SimReport::empty(2);
        let mut b = SimReport::empty(2);
        b.energy = Energy::from_units(10.0);
        b.per_task_energy[1] = Energy::from_units(4.0);
        b.jobs_completed = 3;
        b.hyper_periods = 1;
        b.busy_time = TimeSpan::from_ms(5.0);
        b.worst_lateness_ms = 1.5;
        b.event_queue_peak = 7;
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.energy, Energy::from_units(20.0));
        // `max` counters keep the larger value instead of adding up.
        assert_eq!(a.worst_lateness_ms, 1.5);
        assert_eq!(a.event_queue_peak, 7);
        assert_eq!(a.per_task_energy[1], Energy::from_units(8.0));
        assert_eq!(a.jobs_completed, 6);
        assert_eq!(a.hyper_periods, 2);
        assert_eq!(a.energy_per_hyper_period(), Energy::from_units(10.0));
        assert!(a.all_deadlines_met());
    }

    #[test]
    fn improvement_formula() {
        assert!(
            (improvement_over(Energy::from_units(7961.0), Energy::from_units(6000.0)) - 0.2463)
                .abs()
                < 1e-3
        );
        assert_eq!(improvement_over(Energy::ZERO, Energy::from_units(1.0)), 0.0);
    }

    #[test]
    fn empty_report_identity() {
        let r = SimReport::empty(1);
        assert_eq!(r.energy_per_hyper_period(), Energy::ZERO);
        assert!(r.all_deadlines_met());
    }
}
