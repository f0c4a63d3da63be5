//! Rate-monotonic task sets.

use crate::error::ModelError;
use crate::graph::TaskGraph;
use crate::sched_class::SchedulingClass;
use crate::task::{Task, TaskId};
use crate::units::{Freq, Ticks, TimeSpan};

/// A set of periodic tasks under rate-monotonic (RM) fixed priorities
/// (paper §2.1).
///
/// On construction the tasks are sorted by increasing period (ties broken
/// by insertion order, matching FIFO service among equal-priority tasks);
/// afterwards the index of a task *is* its priority — index 0 is the
/// highest-priority task — and doubles as its [`TaskId`].
///
/// ```
/// use acs_model::{Task, TaskSet, units::{Cycles, Ticks}};
/// let ts = TaskSet::new(vec![
///     Task::builder("slow", Ticks::new(9)).wcec(Cycles::from_cycles(90.0)).build()?,
///     Task::builder("fast", Ticks::new(3)).wcec(Cycles::from_cycles(30.0)).build()?,
/// ])?;
/// assert_eq!(ts.task(acs_model::TaskId(0)).name(), "fast"); // shorter period first
/// assert_eq!(ts.hyper_period(), Ticks::new(9));
/// # Ok::<(), acs_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
    hyper_period: Ticks,
    class: SchedulingClass,
    graph: Option<TaskGraph>,
}

impl TaskSet {
    /// Builds a task set, sorting tasks rate-monotonically and computing
    /// the hyper-period.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTaskSet`] when `tasks` is empty,
    /// [`ModelError::DuplicateTaskName`] when two tasks share a name, and
    /// [`ModelError::HyperPeriodOverflow`] when the lcm of the periods does
    /// not fit in `u64`.
    pub fn new(mut tasks: Vec<Task>) -> Result<Self, ModelError> {
        if tasks.is_empty() {
            return Err(ModelError::EmptyTaskSet);
        }
        let mut names: Vec<&str> = tasks.iter().map(Task::name).collect();
        names.sort_unstable();
        for pair in names.windows(2) {
            if pair[0] == pair[1] {
                return Err(ModelError::DuplicateTaskName(pair[0].to_string()));
            }
        }
        // Stable sort keeps insertion order among equal periods, which is
        // the FIFO tie-break the paper's "same priority" rule implies.
        tasks.sort_by_key(Task::period);
        let mut hyper = Ticks::new(1);
        for t in &tasks {
            hyper = hyper
                .lcm(t.period())
                .ok_or(ModelError::HyperPeriodOverflow)?;
        }
        Ok(TaskSet {
            tasks,
            hyper_period: hyper,
            class: SchedulingClass::default(),
            graph: None,
        })
    }

    /// Returns the set with its default scheduling class replaced.
    ///
    /// The tasks stay sorted by period either way — under
    /// [`SchedulingClass::FixedPriorityRm`] the index *is* the priority;
    /// under [`SchedulingClass::Edf`] it is only an id (and the EDF
    /// tie-break). Consumers that take an explicit class override (the
    /// campaign grid's class axis) ignore this default.
    #[must_use]
    pub fn with_class(mut self, class: SchedulingClass) -> Self {
        self.class = class;
        self
    }

    /// The scheduling class jobs of this set are dispatched under by
    /// default ([`SchedulingClass::FixedPriorityRm`] unless changed with
    /// [`TaskSet::with_class`]).
    pub fn class(&self) -> SchedulingClass {
        self.class
    }

    /// Returns the set with precedence constraints attached. The graph
    /// must have been built against this set (see [`TaskGraph::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the graph was validated against a set of a different
    /// size.
    #[must_use]
    pub fn with_graph(mut self, graph: TaskGraph) -> Self {
        assert_eq!(
            graph.task_count(),
            self.tasks.len(),
            "TaskGraph was built against a different task set"
        );
        self.graph = Some(graph);
        self
    }

    /// The precedence graph attached with [`TaskSet::with_graph`], if
    /// any. Independent (edge-free) sets return `None`.
    pub fn graph(&self) -> Option<&TaskGraph> {
        self.graph.as_ref()
    }

    /// All tasks in priority order (highest first).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this set.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set has no tasks (never the case for a constructed
    /// set, but required for API completeness).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over `(TaskId, &Task)` in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// The hyper-period: least common multiple of all periods. The frame
    /// that repeats forever (paper §2.1).
    pub fn hyper_period(&self) -> Ticks {
        self.hyper_period
    }

    /// Number of instances task `id` releases per hyper-period.
    pub fn instances_of(&self, id: TaskId) -> u64 {
        self.hyper_period.get() / self.task(id).period().get()
    }

    /// Total instances released per hyper-period across all tasks.
    pub fn total_instances(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| self.hyper_period.get() / t.period().get())
            .sum()
    }

    /// Worst-case processor utilization at the given maximum speed:
    /// `Σ WCEC_i / (period_i · f_max)`.
    ///
    /// Values `> 1` mean the set cannot be scheduled even without DVS.
    pub fn utilization_at(&self, f_max: Freq) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.wcec() / (t.period().as_span() * f_max))
            .sum()
    }

    /// Ensures worst-case utilization at `f_max` does not exceed 1
    /// (+`1e-9` slack for rounding).
    ///
    /// # Errors
    ///
    /// [`ModelError::Overutilized`] when it does. Note this is necessary,
    /// not sufficient, for RM feasibility; the expansion-based worst-case
    /// check in `acs-core` is exact for the fully preemptive schedule.
    pub fn check_utilization(&self, f_max: Freq) -> Result<(), ModelError> {
        let u = self.utilization_at(f_max);
        if u > 1.0 + 1e-9 {
            Err(ModelError::Overutilized { utilization: u })
        } else {
            Ok(())
        }
    }

    /// Sum of worst-case execution time over one hyper-period at speed
    /// `f_max` — the busy time of the all-WCEC schedule at full speed.
    pub fn worst_case_demand_at(&self, f_max: Freq) -> TimeSpan {
        self.tasks
            .iter()
            .map(|t| {
                let n = self.hyper_period.get() / t.period().get();
                (t.wcec() / f_max) * n as f64
            })
            .sum()
    }
}

impl std::ops::Index<TaskId> for TaskSet {
    type Output = Task;
    fn index(&self, id: TaskId) -> &Task {
        self.task(id)
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Cycles;

    fn task(name: &str, period: u64, wcec: f64) -> Task {
        Task::builder(name, Ticks::new(period))
            .wcec(Cycles::from_cycles(wcec))
            .build()
            .unwrap()
    }

    fn demo_set() -> TaskSet {
        TaskSet::new(vec![
            task("c", 9, 90.0),
            task("a", 3, 30.0),
            task("b", 6, 60.0),
        ])
        .unwrap()
    }

    #[test]
    fn sorts_rate_monotonically() {
        let ts = demo_set();
        let names: Vec<_> = ts.tasks().iter().map(Task::name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(ts.task(TaskId(2)).name(), "c");
        assert_eq!(ts[TaskId(0)].name(), "a");
    }

    #[test]
    fn equal_periods_keep_insertion_order() {
        let ts = TaskSet::new(vec![task("x", 5, 1.0), task("y", 5, 1.0)]).unwrap();
        assert_eq!(ts.task(TaskId(0)).name(), "x");
        assert_eq!(ts.task(TaskId(1)).name(), "y");
    }

    #[test]
    fn hyper_period_is_lcm() {
        assert_eq!(demo_set().hyper_period(), Ticks::new(18));
    }

    #[test]
    fn instance_counts() {
        let ts = demo_set();
        assert_eq!(ts.instances_of(TaskId(0)), 6);
        assert_eq!(ts.instances_of(TaskId(1)), 3);
        assert_eq!(ts.instances_of(TaskId(2)), 2);
        assert_eq!(ts.total_instances(), 11);
    }

    #[test]
    fn utilization() {
        let ts = demo_set();
        let f = Freq::from_cycles_per_ms(20.0);
        // 30/(3*20) + 60/(6*20) + 90/(9*20) = 0.5+0.5+0.5
        assert!((ts.utilization_at(f) - 1.5).abs() < 1e-12);
        assert!(ts.check_utilization(f).is_err());
        let f2 = Freq::from_cycles_per_ms(30.0);
        assert!(ts.check_utilization(f2).is_ok());
    }

    #[test]
    fn worst_case_demand() {
        let ts = demo_set();
        let f = Freq::from_cycles_per_ms(30.0);
        // per hyper-period: 6*1ms + 3*2ms + 2*3ms = 18ms busy
        assert!(ts
            .worst_case_demand_at(f)
            .approx_eq(TimeSpan::from_ms(18.0), 1e-9));
    }

    #[test]
    fn class_defaults_to_rm_and_is_settable() {
        let ts = demo_set();
        assert_eq!(ts.class(), SchedulingClass::FixedPriorityRm);
        let edf = ts.clone().with_class(SchedulingClass::Edf);
        assert_eq!(edf.class(), SchedulingClass::Edf);
        // The class participates in equality; everything else is shared.
        assert_ne!(ts, edf);
        assert_eq!(ts.tasks(), edf.tasks());
        assert_eq!(ts, edf.with_class(SchedulingClass::FixedPriorityRm));
    }

    #[test]
    fn graph_attaches_and_participates_in_equality() {
        let ts = TaskSet::new(vec![task("x", 5, 1.0), task("y", 5, 1.0)]).unwrap();
        assert!(ts.graph().is_none());
        let g = TaskGraph::new(&ts, [("x", "y")]).unwrap();
        let dag = ts.clone().with_graph(g);
        assert_eq!(dag.graph().unwrap().edge_count(), 1);
        assert_ne!(ts, dag);
        assert_eq!(ts.tasks(), dag.tasks());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(TaskSet::new(vec![]).unwrap_err(), ModelError::EmptyTaskSet);
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = TaskSet::new(vec![task("a", 3, 1.0), task("a", 6, 1.0)]).unwrap_err();
        assert_eq!(err, ModelError::DuplicateTaskName("a".into()));
    }

    #[test]
    fn rejects_hyper_period_overflow() {
        // Two large coprime periods whose product overflows u64.
        let p1 = (1u64 << 62) - 1; // odd
        let p2 = 1u64 << 62; // power of two => coprime with p1
        let err = TaskSet::new(vec![task("a", p1, 1.0), task("b", p2, 1.0)]).unwrap_err();
        assert_eq!(err, ModelError::HyperPeriodOverflow);
    }

    #[test]
    fn iteration_yields_priority_order() {
        let ts = demo_set();
        let ids: Vec<_> = ts.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
        let periods: Vec<_> = (&ts).into_iter().map(|t| t.period().get()).collect();
        assert_eq!(periods, [3, 6, 9]);
    }
}
