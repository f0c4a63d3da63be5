//! Utilization-driven partitioning of a task set onto identical cores.
//!
//! Partitioned multiprocessor scheduling (Nélis et al.) reduces an
//! N-core platform to N independent single-core problems: assign every
//! task to exactly one core, then run the classic single-core machinery
//! — offline synthesis, the event-driven engine, any online policy —
//! per core (`acs_sim::MachineRun`). The assignment is the classic
//! bin-packing family over worst-case utilizations, in decreasing
//! order: a schedulability question like [`rm_feasible`](crate::rm_feasible)
//! and [`edf_demand_feasible`](crate::edf_demand_feasible), one core
//! at a time.

use crate::error::PreemptError;
use acs_model::units::{Freq, Ticks};
use acs_model::TaskSet;

/// Which bin-packing heuristic assigns tasks (in decreasing worst-case
/// utilization order) to cores.
///
/// ```
/// use acs_preempt::PartitionHeuristic;
///
/// assert_eq!(PartitionHeuristic::FirstFitDecreasing.label(), "ffd");
/// assert_eq!("wfd".parse(), Ok(PartitionHeuristic::WorstFitDecreasing));
/// assert!("zfd".parse::<PartitionHeuristic>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionHeuristic {
    /// First-fit decreasing: each task lands on the lowest-indexed core
    /// with room. Tends to fill early cores and leave late ones idle.
    FirstFitDecreasing,
    /// Best-fit decreasing: each task lands on the *fullest* core with
    /// room — tight packing, maximizing fully-idle cores.
    BestFitDecreasing,
    /// Worst-fit decreasing: each task lands on the *emptiest* core —
    /// load balancing, maximizing per-core slack for DVS to exploit.
    WorstFitDecreasing,
}

impl PartitionHeuristic {
    /// All heuristics, in canonical order.
    pub const ALL: [PartitionHeuristic; 3] = [
        PartitionHeuristic::FirstFitDecreasing,
        PartitionHeuristic::BestFitDecreasing,
        PartitionHeuristic::WorstFitDecreasing,
    ];

    /// The short label used in scenarios, reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            PartitionHeuristic::FirstFitDecreasing => "ffd",
            PartitionHeuristic::BestFitDecreasing => "bfd",
            PartitionHeuristic::WorstFitDecreasing => "wfd",
        }
    }
}

impl std::fmt::Display for PartitionHeuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for PartitionHeuristic {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ffd" => Ok(PartitionHeuristic::FirstFitDecreasing),
            "bfd" => Ok(PartitionHeuristic::BestFitDecreasing),
            "wfd" => Ok(PartitionHeuristic::WorstFitDecreasing),
            other => Err(format!(
                "unknown partition heuristic `{other}` (known: ffd, bfd, wfd)"
            )),
        }
    }
}

/// One core's share of a [`Partition`].
#[derive(Debug, Clone)]
pub struct CoreAssignment {
    /// Indices of the assigned tasks in the *original* set's priority
    /// order (ascending).
    pub tasks: Vec<usize>,
    /// Sum of the assigned tasks' worst-case utilizations at `f_max`.
    pub utilization: f64,
    /// The core's own task set (`None` when the core received no tasks
    /// — it only draws idle power).
    pub set: Option<TaskSet>,
}

/// A task-to-core assignment plus the rebuilt per-core task sets.
///
/// Every core's hyper-period divides the machine hyper-period (the
/// original set's lcm of periods), so simulating core `i` for
/// `machine_hyper_period / core_hyper_period` of its own hyper-periods
/// covers exactly one machine hyper-period of wall-clock time.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per-core assignments, in core order.
    pub cores: Vec<CoreAssignment>,
    /// The original (whole-machine) hyper-period.
    pub machine_hyper_period: Ticks,
}

impl Partition {
    /// Number of cores that received at least one task.
    pub fn busy_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.set.is_some()).count()
    }

    /// How many of its own hyper-periods core `i` must simulate to cover
    /// one machine hyper-period (1 for empty cores).
    pub fn hyper_multiplier(&self, core: usize) -> u64 {
        match &self.cores[core].set {
            Some(set) => self.machine_hyper_period.get() / set.hyper_period().get(),
            None => 1,
        }
    }
}

/// Assigns `set` to `cores` identical cores by the given heuristic, in
/// decreasing worst-case-utilization order (`WCEC_i / (period_i ·
/// f_max)`), with a per-core capacity of utilization 1 — the exact
/// per-core EDF bound for implicit deadlines
/// ([`acs_model::SchedulingClass::Edf`]; only *necessary* when
/// deadlines are constrained below periods — use
/// [`edf_demand_feasible`](crate::edf_demand_feasible) there — and likewise necessary
/// under RM, where the expansion-based worst-case check in `acs-core`
/// remains the exact per-core gate).
///
/// Ties in utilization break toward the lower task index, and ties in
/// core load toward the lower core index, so the assignment is a pure
/// function of its inputs. Within one core, tasks keep their original
/// relative (rate-monotonic) order, and every per-core set inherits the
/// parent set's [scheduling class](acs_model::TaskSet::class).
///
/// ```
/// use acs_model::{Task, TaskSet, units::{Cycles, Freq, Ticks}};
/// use acs_preempt::{partition, PartitionHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TaskSet::new(vec![
///     Task::builder("a", Ticks::new(10)).wcec(Cycles::from_cycles(1200.0)).build()?,
///     Task::builder("b", Ticks::new(10)).wcec(Cycles::from_cycles(800.0)).build()?,
///     Task::builder("c", Ticks::new(20)).wcec(Cycles::from_cycles(800.0)).build()?,
/// ])?;
/// let f_max = Freq::from_cycles_per_ms(200.0); // utils: 0.6, 0.4, 0.2
/// let p = partition(&set, f_max, 2, PartitionHeuristic::FirstFitDecreasing)?;
/// // FFD: a→core0 (0.6), b→core0 (1.0 exactly), c→core1.
/// assert_eq!(p.cores[0].tasks, vec![0, 1]);
/// assert_eq!(p.cores[1].tasks, vec![2]);
///
/// let w = partition(&set, f_max, 2, PartitionHeuristic::WorstFitDecreasing)?;
/// // WFD balances: a→core0, b→core1, c→core1.
/// assert_eq!(w.cores[0].tasks, vec![0]);
/// assert_eq!(w.cores[1].tasks, vec![1, 2]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`PreemptError::InvalidCoreCount`] for zero cores;
/// [`PreemptError::GraphNotPartitionable`] when the set carries a
/// non-empty precedence graph (use global placement);
/// [`PreemptError::Infeasible`] when some task fits on no core;
/// [`PreemptError::Model`] when a per-core task set violates a model
/// invariant (cannot happen for subsets of a valid set, but surfaced
/// rather than panicking).
pub fn partition(
    set: &TaskSet,
    f_max: Freq,
    cores: usize,
    heuristic: PartitionHeuristic,
) -> Result<Partition, PreemptError> {
    if cores == 0 {
        return Err(PreemptError::InvalidCoreCount);
    }
    // Precedence edges cannot cross a partition: a successor pinned to
    // core A would need to observe its predecessor's completion on core
    // B, which independent per-core simulations cannot express. DAG
    // sets run under global placement (`Simulator::with_cores`) instead.
    if set.graph().is_some_and(|g| !g.is_empty()) {
        return Err(PreemptError::GraphNotPartitionable);
    }
    const CAP: f64 = 1.0 + 1e-9;
    let utils: Vec<f64> = set
        .tasks()
        .iter()
        .map(|t| t.wcec() / (t.period().as_span() * f_max))
        .collect();
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_by(|&a, &b| utils[b].total_cmp(&utils[a]).then(a.cmp(&b)));

    let mut loads = vec![0.0f64; cores];
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); cores];
    for &t in &order {
        let fits = |core: usize| loads[core] + utils[t] <= CAP;
        let core = match heuristic {
            PartitionHeuristic::FirstFitDecreasing => (0..cores).find(|&c| fits(c)),
            PartitionHeuristic::BestFitDecreasing => (0..cores)
                .filter(|&c| fits(c))
                .max_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(b.cmp(&a))),
            PartitionHeuristic::WorstFitDecreasing => (0..cores)
                .filter(|&c| fits(c))
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b))),
        };
        let Some(core) = core else {
            return Err(PreemptError::Infeasible {
                task: set.tasks()[t].name().to_string(),
                util: utils[t],
                cores,
            });
        };
        loads[core] += utils[t];
        assigned[core].push(t);
    }

    let mut out = Vec::with_capacity(cores);
    for (core, mut tasks) in assigned.into_iter().enumerate() {
        tasks.sort_unstable();
        let core_set = if tasks.is_empty() {
            None
        } else {
            let cloned: Vec<_> = tasks.iter().map(|&t| set.tasks()[t].clone()).collect();
            Some(
                TaskSet::new(cloned)
                    .map_err(|e| PreemptError::Model(e.to_string()))?
                    .with_class(set.class()),
            )
        };
        out.push(CoreAssignment {
            tasks,
            utilization: loads[core],
            set: core_set,
        });
    }
    Ok(Partition {
        cores: out,
        machine_hyper_period: set.hyper_period(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::Cycles;
    use acs_model::Task;

    fn task(name: &str, period: u64, wcec: f64) -> Task {
        Task::builder(name, Ticks::new(period))
            .wcec(Cycles::from_cycles(wcec))
            .build()
            .unwrap()
    }

    fn f200() -> Freq {
        Freq::from_cycles_per_ms(200.0)
    }

    /// utils at f_max=200: 0.5, 0.4, 0.3, 0.2.
    fn fixture() -> TaskSet {
        TaskSet::new(vec![
            task("a", 10, 1000.0),
            task("b", 10, 800.0),
            task("c", 20, 1200.0),
            task("d", 20, 800.0),
        ])
        .unwrap()
    }

    #[test]
    fn ffd_packs_first_cores() {
        let p = partition(
            &fixture(),
            f200(),
            3,
            PartitionHeuristic::FirstFitDecreasing,
        )
        .unwrap();
        // Order by util: a(.5) b(.4) c(.3) d(.2).
        // a→0, b→0 (.9), c→1 (.3), d→1? 0 has .9+.2 > 1 → core 1.
        assert_eq!(p.cores[0].tasks, vec![0, 1]);
        assert_eq!(p.cores[1].tasks, vec![2, 3]);
        assert!(p.cores[2].set.is_none());
        assert_eq!(p.busy_cores(), 2);
    }

    #[test]
    fn bfd_prefers_fullest_fitting_core() {
        let p = partition(&fixture(), f200(), 3, PartitionHeuristic::BestFitDecreasing).unwrap();
        // a→0; b→0 (fullest, fits, .9); c→ fullest fitting is 0? .9+.3>1 → 1; d→0 (.9) fits? .9+.2>1 → 1 (.3 vs empty 2 → 1).
        assert_eq!(p.cores[0].tasks, vec![0, 1]);
        assert_eq!(p.cores[1].tasks, vec![2, 3]);
    }

    #[test]
    fn wfd_balances_load() {
        let p = partition(
            &fixture(),
            f200(),
            2,
            PartitionHeuristic::WorstFitDecreasing,
        )
        .unwrap();
        // a→0 (.5); b→1 (.4); c→1? loads .5/.4 → core1 (.7); d→0 (.7).
        assert_eq!(p.cores[0].tasks, vec![0, 3]);
        assert_eq!(p.cores[1].tasks, vec![1, 2]);
        assert!((p.cores[0].utilization - 0.7).abs() < 1e-12);
        assert!((p.cores[1].utilization - 0.7).abs() < 1e-12);
    }

    #[test]
    fn single_core_is_identity() {
        // Utils 0.3 + 0.25 + 0.2 + 0.1 = 0.85: fits on one core.
        let set = TaskSet::new(vec![
            task("a", 10, 600.0),
            task("b", 10, 500.0),
            task("c", 20, 800.0),
            task("d", 20, 400.0),
        ])
        .unwrap();
        for h in PartitionHeuristic::ALL {
            let p = partition(&set, f200(), 1, h).unwrap();
            assert_eq!(p.cores.len(), 1);
            assert_eq!(p.cores[0].tasks, vec![0, 1, 2, 3]);
            let core = p.cores[0].set.as_ref().unwrap();
            assert_eq!(core.hyper_period(), set.hyper_period());
            assert_eq!(p.hyper_multiplier(0), 1);
        }
    }

    #[test]
    fn hyper_multiplier_covers_machine_period() {
        let set = TaskSet::new(vec![task("fast", 5, 100.0), task("slow", 40, 100.0)]).unwrap();
        let p = partition(&set, f200(), 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        assert_eq!(p.machine_hyper_period, Ticks::new(40));
        for core in 0..2 {
            let s = p.cores[core].set.as_ref().unwrap();
            assert_eq!(
                p.hyper_multiplier(core) * s.hyper_period().get(),
                40,
                "core {core} must tile the machine hyper-period"
            );
        }
    }

    #[test]
    fn infeasible_and_zero_cores_rejected() {
        let heavy = TaskSet::new(vec![task("x", 10, 2200.0)]).unwrap(); // util 1.1
        for h in PartitionHeuristic::ALL {
            let err = partition(&heavy, f200(), 4, h).unwrap_err();
            assert!(matches!(err, PreemptError::Infeasible { .. }), "{err}");
            assert!(err.to_string().contains("`x`"));
        }
        assert_eq!(
            partition(
                &fixture(),
                f200(),
                0,
                PartitionHeuristic::FirstFitDecreasing
            )
            .unwrap_err(),
            PreemptError::InvalidCoreCount
        );
    }

    #[test]
    fn dag_sets_are_not_partitionable() {
        let set = TaskSet::new(vec![task("a", 10, 100.0), task("b", 10, 100.0)]).unwrap();
        let g = acs_model::TaskGraph::new(&set, vec![("a", "b")]).unwrap();
        let set = set.with_graph(g);
        for h in PartitionHeuristic::ALL {
            assert_eq!(
                partition(&set, f200(), 2, h).unwrap_err(),
                PreemptError::GraphNotPartitionable
            );
        }
    }

    #[test]
    fn core_sets_inherit_the_scheduling_class() {
        use acs_model::SchedulingClass;
        let set = fixture().with_class(SchedulingClass::Edf);
        let p = partition(&set, f200(), 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        for core in p.cores.iter().filter_map(|c| c.set.as_ref()) {
            assert_eq!(core.class(), SchedulingClass::Edf);
        }
    }

    #[test]
    fn heuristic_labels_round_trip() {
        for h in PartitionHeuristic::ALL {
            assert_eq!(h.label().parse::<PartitionHeuristic>(), Ok(h));
            assert_eq!(h.to_string(), h.label());
        }
    }
}
