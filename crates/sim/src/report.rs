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

    /// Component-wise sum (used when folding per-core breakdowns into a
    /// machine-level one).
    pub fn absorb(&mut self, other: &EnergyBreakdown) {
        self.dynamic += other.dynamic;
        self.static_ += other.static_;
        self.idle += other.idle;
    }
}

/// Aggregate outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total energy consumed (dynamic + static + idle + transition
    /// overhead).
    pub energy: Energy,
    /// Static (leakage) energy drawn while executing — part of
    /// [`SimReport::energy`].
    pub static_energy: Energy,
    /// Energy drawn while idle (zero under the paper's shutdown
    /// assumption) — part of [`SimReport::energy`].
    pub idle_energy: Energy,
    /// Dynamic energy split per task (indexed by `TaskId`).
    pub per_task_energy: Vec<Energy>,
    /// Number of job completions.
    pub jobs_completed: usize,
    /// Number of jobs that missed their deadline.
    pub deadline_misses: usize,
    /// The subset of [`SimReport::deadline_misses`] from *aperiodic*
    /// jobs — releases produced by a non-periodic arrival source
    /// (sporadic/Poisson/MMPP generators or trace replay), which run on
    /// synthetic per-job plans rather than the static schedule. Always
    /// zero on periodic cells.
    pub misses_aperiodic: usize,
    /// Worst completion lateness past a deadline observed, in ms
    /// (0 when every job met its deadline; includes sub-tolerance
    /// lateness not counted in `deadline_misses`).
    pub worst_lateness_ms: f64,
    /// Dispatches where the requested speed exceeded `f_max` (the
    /// processor saturated at `vmax`).
    pub saturated_dispatches: usize,
    /// Total time the processor was idle (shut down, zero energy).
    pub idle_time: TimeSpan,
    /// Total time the processor executed cycles.
    pub busy_time: TimeSpan,
    /// Number of voltage transitions (changes between consecutive
    /// execution slices).
    pub voltage_switches: usize,
    /// Number of preemptions: dispatches that displaced a different,
    /// still-unfinished job. On per-frame (equal-period) sets the RM
    /// and EDF scheduling classes produce identical counts.
    pub preemptions: usize,
    /// Number of migrations: dispatches where a job resumed on a
    /// different core than the one it last executed on, counted on the
    /// core it arrived on. Always zero on one core and for partitioned
    /// multiprocessor runs (jobs are pinned to their core); only
    /// multi-core runs ([`Simulator::with_cores`]) move jobs between
    /// cores.
    ///
    /// [`Simulator::with_cores`]: crate::Simulator::with_cores
    pub migrations: usize,
    /// Workload draws clamped into `[0, WCEC]`.
    pub clamped_draws: usize,
    /// Number of hyper-periods simulated.
    pub hyper_periods: u64,
    /// Boundary states for which the policy's online solver was
    /// consulted (0 unless the policy re-optimizes; see
    /// [`SolverStats`](crate::SolverStats)).
    pub solver_lookups: usize,
    /// Solver lookups answered from the shared solver cache.
    pub solver_cache_hits: usize,
    /// Boundary re-solves actually executed (lookups minus hits).
    pub boundary_resolves: usize,
    /// Re-solved candidates adopted after the feasibility/energy gate.
    pub resolves_adopted: usize,
    /// Solver lookups answered by an incremental carried warm solve
    /// (previous boundary's multipliers seeded one solve that passed
    /// the gate), skipping cache and fan-out alike. Invariant:
    /// `solver_lookups == warm_carry_hits + solver_cache_hits +
    /// boundary_resolves`.
    pub warm_carry_hits: usize,
    /// Events the engine handled: event-queue pops (releases, chunk
    /// wakeups) plus dispatched execution slices. Deterministic for a
    /// given cell — the differential suite pins it as an invariant.
    /// The legacy chunk-scan oracle reports 0.
    pub events_handled: u64,
    /// High-water mark of the engine's event queue (max events pending
    /// at once within any one hyper-period). The legacy chunk-scan
    /// oracle reports 0.
    pub event_queue_peak: usize,
}

impl SimReport {
    /// An empty report (used as the accumulator identity).
    pub fn empty(tasks: usize) -> Self {
        SimReport {
            energy: Energy::ZERO,
            static_energy: Energy::ZERO,
            idle_energy: Energy::ZERO,
            per_task_energy: vec![Energy::ZERO; tasks],
            jobs_completed: 0,
            deadline_misses: 0,
            misses_aperiodic: 0,
            worst_lateness_ms: 0.0,
            saturated_dispatches: 0,
            idle_time: TimeSpan::ZERO,
            busy_time: TimeSpan::ZERO,
            voltage_switches: 0,
            preemptions: 0,
            migrations: 0,
            clamped_draws: 0,
            hyper_periods: 0,
            solver_lookups: 0,
            solver_cache_hits: 0,
            boundary_resolves: 0,
            resolves_adopted: 0,
            warm_carry_hits: 0,
            events_handled: 0,
            event_queue_peak: 0,
        }
    }

    /// Resets every counter to the [`SimReport::empty`] state for
    /// `tasks` tasks, reusing the `per_task_energy` allocation. The
    /// engine recycles one report per hyper-period instead of
    /// allocating a fresh one.
    pub fn reset(&mut self, tasks: usize) {
        let mut per_task = std::mem::take(&mut self.per_task_energy);
        per_task.clear();
        per_task.resize(tasks, Energy::ZERO);
        // `empty(0)`'s vec is zero-length and never allocates.
        *self = SimReport::empty(0);
        self.per_task_energy = per_task;
    }

    /// Folds another report (e.g. one hyper-period) into this one.
    pub fn absorb(&mut self, other: &SimReport) {
        self.energy += other.energy;
        self.static_energy += other.static_energy;
        self.idle_energy += other.idle_energy;
        for (a, b) in self.per_task_energy.iter_mut().zip(&other.per_task_energy) {
            *a += *b;
        }
        self.jobs_completed += other.jobs_completed;
        self.deadline_misses += other.deadline_misses;
        self.misses_aperiodic += other.misses_aperiodic;
        self.worst_lateness_ms = self.worst_lateness_ms.max(other.worst_lateness_ms);
        self.saturated_dispatches += other.saturated_dispatches;
        self.idle_time += other.idle_time;
        self.busy_time += other.busy_time;
        self.voltage_switches += other.voltage_switches;
        self.preemptions += other.preemptions;
        self.migrations += other.migrations;
        self.clamped_draws += other.clamped_draws;
        self.hyper_periods += other.hyper_periods;
        self.solver_lookups += other.solver_lookups;
        self.solver_cache_hits += other.solver_cache_hits;
        self.boundary_resolves += other.boundary_resolves;
        self.resolves_adopted += other.resolves_adopted;
        self.warm_carry_hits += other.warm_carry_hits;
        self.events_handled += other.events_handled;
        self.event_queue_peak = self.event_queue_peak.max(other.event_queue_peak);
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
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.energy, Energy::from_units(20.0));
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
