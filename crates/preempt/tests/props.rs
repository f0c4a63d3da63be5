//! Property-based tests for the fully preemptive expansion and for
//! partitioning.

use acs_model::units::{Cycles, Freq, Ticks};
use acs_model::{SchedulingClass, Task, TaskId, TaskSet};
use acs_preempt::{
    partition, FullyPreemptiveSchedule, Partition, PartitionHeuristic, PreemptError,
};
use proptest::prelude::*;

fn arb_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec((1u64..30, prop::bool::ANY), 1..6).prop_map(|specs| {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, &(p, constrained))| {
                let deadline = if constrained && p > 1 { p - p / 3 } else { p };
                Task::builder(format!("t{i}"), Ticks::new(p))
                    .deadline(Ticks::new(deadline.max(1)))
                    .wcec(Cycles::from_cycles(10.0))
                    .build()
                    .unwrap()
            })
            .collect();
        TaskSet::new(tasks).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Segments tile the hyper-period without gaps or overlaps.
    #[test]
    fn segments_partition_hyper_period(set in arb_set()) {
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let grid = fps.grid();
        let mut prev = 0;
        for (a, b) in grid.segments() {
            prop_assert_eq!(a.get(), prev);
            prop_assert!(b > a);
            prev = b.get();
        }
        prop_assert_eq!(prev, set.hyper_period().get());
    }

    /// Every sub-instance window nests in its instance's
    /// [release, deadline] interval and matches its segment.
    #[test]
    fn windows_nest(set in arb_set()) {
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        for s in fps.sub_instances() {
            prop_assert!(s.window_start >= s.instance_release);
            prop_assert!(s.window_end <= s.instance_deadline);
            prop_assert!(s.window_end > s.window_start);
            let (a, b) = fps.grid().segment_bounds(s.segment);
            prop_assert!(s.window_start.as_ms() >= a.as_time().as_ms() - 1e-9);
            prop_assert!(s.window_end.as_ms() <= b.as_time().as_ms() + 1e-9);
        }
    }

    /// The total order is (segment, priority)-lexicographic, and chunks of
    /// one instance appear in window order.
    #[test]
    fn total_order_lexicographic(set in arb_set()) {
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        for w in fps.sub_instances().windows(2) {
            let (a, b) = (&w[0], &w[1]);
            prop_assert!(
                a.segment < b.segment
                    || (a.segment == b.segment && a.instance.task < b.instance.task)
            );
        }
        for (tid, _) in set.iter() {
            for inst in 0..fps.instances_of(tid) {
                let ids: Vec<_> = fps
                    .chunks_of(acs_preempt::InstanceId { task: tid, index: inst })
                    .collect();
                for (k, pair) in ids.windows(2).enumerate() {
                    prop_assert!(fps.sub(pair[0]).window_end <= fps.sub(pair[1]).window_start);
                    prop_assert_eq!(fps.sub(pair[0]).chunk, k);
                }
            }
        }
    }

    /// Instance counts: each task contributes exactly hyper/period
    /// instances, and every instance has ≥ 1 chunk.
    #[test]
    fn instance_accounting(set in arb_set()) {
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let h = set.hyper_period().get();
        for (tid, task) in set.iter() {
            prop_assert_eq!(fps.instances_of(tid), h / task.period().get());
            for inst in 0..fps.instances_of(tid) {
                let n = fps
                    .chunks_of(acs_preempt::InstanceId { task: tid, index: inst })
                    .count();
                prop_assert!(n >= 1);
            }
        }
        let total: usize = (0..set.len())
            .map(|i| {
                (0..fps.instances_of(TaskId(i)))
                    .map(|j| fps.chunks_of(acs_preempt::InstanceId { task: TaskId(i), index: j }).count())
                    .sum::<usize>()
            })
            .sum();
        prop_assert_eq!(total, fps.len());
    }

    /// Expansion under a cap either fits or fails cleanly — and the cap
    /// is tight (expanding with exactly len succeeds).
    #[test]
    fn cap_is_exact(set in arb_set()) {
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let n = fps.len();
        prop_assert!(FullyPreemptiveSchedule::expand_capped(&set, n).is_ok());
        if n > 1 {
            prop_assert!(FullyPreemptiveSchedule::expand_capped(&set, n - 1).is_err());
        }
    }

    /// With harmonic periods every lower-priority release coincides with
    /// a release of the highest-priority task, so that task is never
    /// split (the paper's Fig. 4 situation). Note the expansion
    /// intentionally splits at *all* release points — including
    /// lower-priority ones — because the sequential total-order chain of
    /// the NLP needs a common grid to express every interleaving; extra
    /// split points only refine the schedule space (see module docs).
    #[test]
    fn highest_priority_task_unsplit_under_harmonic_periods(
        base in 1u64..6,
        multipliers in prop::collection::vec(1u64..6, 1..5),
    ) {
        let mut periods = vec![base];
        let mut p = base;
        for m in multipliers {
            p *= m.max(1);
            periods.push(p);
        }
        let tasks: Vec<Task> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Task::builder(format!("t{i}"), Ticks::new(p))
                    .wcec(Cycles::from_cycles(1.0))
                    .build()
                    .unwrap()
            })
            .collect();
        let set = TaskSet::new(tasks).unwrap();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        prop_assert_eq!(fps.max_chunks_per_task()[0], 1);
    }
}

/// The periods partition inputs draw from: mixed, not all harmonic, and
/// with hyper-periods of at most 120 ticks.
const PERIODS: [u64; 8] = [4, 5, 6, 8, 10, 12, 20, 30];

/// The speed partition inputs are packed at, in cycles per ms.
const F_MAX: f64 = 100.0;

/// `(set, cores, heuristic)`: 1–8 tasks with mixed periods and
/// worst-case utilizations of 0.05–0.95 each, in either scheduling
/// class, on 1–4 cores, under every heuristic. Some sets fit one core
/// and some fit no core count drawn here.
fn arb_partition_input() -> impl Strategy<Value = (TaskSet, usize, PartitionHeuristic)> {
    (
        prop::collection::vec((0..PERIODS.len(), 0.05f64..0.95), 1..9),
        1usize..5,
        0..PartitionHeuristic::ALL.len(),
        prop::bool::ANY,
    )
        .prop_map(|(specs, cores, heuristic, edf)| {
            let tasks: Vec<Task> = specs
                .iter()
                .enumerate()
                .map(|(i, &(p, util))| {
                    let period = PERIODS[p];
                    Task::builder(format!("t{i}"), Ticks::new(period))
                        .wcec(Cycles::from_cycles(util * period as f64 * F_MAX))
                        .build()
                        .unwrap()
                })
                .collect();
            let class = if edf {
                SchedulingClass::Edf
            } else {
                SchedulingClass::FixedPriorityRm
            };
            let set = TaskSet::new(tasks).unwrap().with_class(class);
            (set, cores, PartitionHeuristic::ALL[heuristic])
        })
}

/// Each core's task indices and utilization bits, for comparing two
/// assignments exactly.
fn assignment(p: &Partition) -> Vec<(Vec<usize>, u64)> {
    p.cores
        .iter()
        .map(|c| (c.tasks.clone(), c.utilization.to_bits()))
        .collect()
}

proptest! {
    /// A partition puts every task on exactly one core, in ascending
    /// task order, within capacity; each busy core's set carries the
    /// parent's class and tiles the machine hyper-period; and the same
    /// inputs give the same assignment. Only an over-committed machine
    /// fails, naming a task of the set.
    #[test]
    fn partition_assigns_each_task_once_within_capacity(input in arb_partition_input()) {
        let (set, cores, heuristic) = input;
        let f_max = Freq::from_cycles_per_ms(F_MAX);
        let utils: Vec<f64> = set
            .tasks()
            .iter()
            .map(|t| t.wcec() / (t.period().as_span() * f_max))
            .collect();
        match partition(&set, f_max, cores, heuristic) {
            Ok(p) => {
                prop_assert_eq!(p.cores.len(), cores);
                prop_assert_eq!(p.machine_hyper_period, set.hyper_period());
                let mut owners = vec![0usize; set.len()];
                for (c, core) in p.cores.iter().enumerate() {
                    prop_assert!(
                        core.tasks.windows(2).all(|w| w[0] < w[1]),
                        "core {c} tasks {:?} not ascending",
                        core.tasks
                    );
                    for &t in &core.tasks {
                        owners[t] += 1;
                    }
                    let sum: f64 = core.tasks.iter().map(|&t| utils[t]).sum();
                    prop_assert!(
                        (core.utilization - sum).abs() <= 1e-12,
                        "core {c}: utilization {} vs task sum {sum}",
                        core.utilization
                    );
                    prop_assert!(core.utilization <= 1.0 + 1e-9, "core {c} over capacity");
                    match &core.set {
                        None => prop_assert!(core.tasks.is_empty()),
                        Some(core_set) => {
                            prop_assert_eq!(core_set.len(), core.tasks.len());
                            prop_assert_eq!(core_set.class(), set.class());
                            prop_assert_eq!(
                                p.hyper_multiplier(c) * core_set.hyper_period().get(),
                                p.machine_hyper_period.get()
                            );
                        }
                    }
                }
                prop_assert!(owners.iter().all(|&n| n == 1), "task owners {owners:?}");
                let again = partition(&set, f_max, cores, heuristic).unwrap();
                prop_assert_eq!(assignment(&again), assignment(&p));
            }
            Err(PreemptError::Infeasible { task, .. }) => {
                prop_assert!(set.tasks().iter().any(|t| t.name() == task), "unknown task {task}");
                // Every task fits beside the rest on one core when the
                // whole set does, so only over-committed sets fail.
                prop_assert!(utils.iter().sum::<f64>() > 1.0);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}
