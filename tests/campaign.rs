//! Acceptance tests for the open online-DVS layer: a user-defined
//! policy (implementing only the `Policy` trait, no `acs-sim` internals
//! touched) runs through both `Simulator` and `Campaign`, and a
//! 100-cell campaign grid executes in parallel with a deterministic,
//! thread-count-independent report.

use acsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

fn random_set(seed: u64) -> TaskSet {
    let cfg = RandomSetConfig::paper(3, 0.1, Freq::from_cycles_per_ms(200.0));
    generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
}

/// A stateful user-defined policy: greedy reclamation with a floor that
/// adapts to how many jobs completed early in the current hyper-period.
/// Exercises every trait hook.
struct AdaptiveFloor {
    early_completions: usize,
    releases: usize,
}

impl AdaptiveFloor {
    fn new() -> Self {
        AdaptiveFloor {
            early_completions: 0,
            releases: 0,
        }
    }
}

impl Policy for AdaptiveFloor {
    fn name(&self) -> &str {
        "adaptive-floor"
    }
    fn needs_schedule(&self) -> bool {
        true
    }
    fn on_start(&mut self, _set: &TaskSet, _cpu: &Processor) {
        self.early_completions = 0;
        self.releases = 0;
    }
    fn on_release(&mut self, _task: TaskId, _set: &TaskSet, _cpu: &Processor) {
        self.releases += 1;
    }
    fn on_completion(&mut self, task: TaskId, actual: Cycles, set: &TaskSet, _cpu: &Processor) {
        if actual < set.tasks()[task.0].acec() {
            self.early_completions += 1;
        }
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        let fmax = ctx.cpu.f_max().as_cycles_per_ms();
        let window = ctx.chunk_end - ctx.now;
        let greedy = if window.as_ms() <= 0.0 {
            fmax
        } else {
            (ctx.chunk_budget_remaining / window).as_cycles_per_ms()
        };
        // The more jobs finish early, the lower we dare to go.
        let confidence = self.early_completions as f64 / self.releases.max(1) as f64;
        let floor = fmax * (0.5 - 0.4 * confidence.clamp(0.0, 1.0));
        Freq::from_cycles_per_ms(greedy.max(floor))
    }
}

/// Acceptance: the custom policy runs through `Simulator` untouched and
/// keeps every deadline; it burns at least as much energy as pure greedy
/// (its floor only raises speeds) but no more than no-DVS.
#[test]
fn user_defined_policy_runs_through_simulator() {
    let set = random_set(8);
    let cpu = cpu();
    let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
    let energy_of = |policy: Box<dyn Policy>, with_schedule: bool| {
        let mut draws = TaskWorkloads::paper(&set, 4);
        let mut sim = Simulator::new(&set, &cpu, policy).with_options(SimOptions {
            hyper_periods: 10,
            deadline_tol_ms: 1e-3,
            ..Default::default()
        });
        if with_schedule {
            sim = sim.with_schedule(&schedule);
        }
        let out = sim.run(&mut draws).unwrap();
        assert_eq!(out.report.deadline_misses, 0);
        out.report.energy.as_units()
    };
    let custom = energy_of(Box::new(AdaptiveFloor::new()), true);
    let greedy = energy_of(Box::new(GreedyReclaim), true);
    let flat = energy_of(Box::new(NoDvs), false);
    assert!(
        custom >= greedy * (1.0 - 1e-9),
        "floor cannot save energy: {custom} vs {greedy}"
    );
    assert!(
        custom <= flat * (1.0 + 1e-9),
        "floor cannot exceed no-DVS: {custom} vs {flat}"
    );
}

/// Acceptance: a 100-cell grid (5 sets × (3 scheduled policies × 2
/// schedules + 1 unscheduled) × ~3 workloads) runs in parallel and the
/// report is identical at 1, 2 and 8 worker threads — seed-stable and
/// scheduling-order-independent.
#[test]
fn hundred_cell_grid_is_deterministic_across_thread_counts() {
    let sets: Vec<(String, TaskSet)> = (0..5)
        .map(|i| (format!("set{i}"), random_set(100 + i)))
        .collect();
    let build = |threads: usize| {
        Campaign::builder()
            .task_sets(sets.clone())
            .processor("linear", cpu())
            .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
            .policy(PolicySpec::greedy())
            .policy(PolicySpec::static_speed())
            .policy(PolicySpec::custom(|| Box::new(AdaptiveFloor::new())))
            .policy(PolicySpec::ccrm())
            .workload(WorkloadSpec::Paper)
            .workload(WorkloadSpec::Uniform)
            .workload(WorkloadSpec::ConstantAcec)
            .seeds([1, 2])
            .hyper_periods(2)
            .threads(threads)
            .build()
            .unwrap()
    };
    // 5 sets x [3 scheduled x 2 schedules + 1 unscheduled] x 3 workloads
    // = 105 cells, 210 runs.
    let campaign = build(8);
    assert!(
        campaign.cell_count() >= 100,
        "grid has only {} cells",
        campaign.cell_count()
    );
    let parallel = campaign.run();
    assert_eq!(parallel.failures().count(), 0, "{}", parallel.to_table());
    assert_eq!(parallel.cells().len(), campaign.cell_count());

    let serial = build(1).run();
    let two = build(2).run();
    assert_eq!(parallel, serial, "8-thread vs serial report diverged");
    assert_eq!(parallel, two, "8-thread vs 2-thread report diverged");

    // And re-running the same campaign reproduces the report exactly.
    assert_eq!(parallel, campaign.run());

    // The custom policy's cells exist and met deadlines everywhere.
    let custom_cells: Vec<_> = parallel
        .cells()
        .iter()
        .filter(|c| c.policy == "adaptive-floor")
        .collect();
    assert_eq!(custom_cells.len(), 5 * 2 * 3);
    for c in custom_cells {
        assert_eq!(c.stats().unwrap().deadline_misses, 0);
    }
}

/// Campaign pairs draws across schedules: the WCS and ACS cells of one
/// set see identical workloads, so `gains()` is a paired comparison and
/// greedy-on-ACS never loses to greedy-on-WCS by more than noise.
#[test]
fn gains_are_paired_and_sane() {
    let report = Campaign::builder()
        .task_set("a", random_set(21))
        .task_set("b", random_set(22))
        .processor("linear", cpu())
        .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
        .policy(PolicySpec::greedy())
        .workload(WorkloadSpec::Paper)
        .seeds([7, 8, 9])
        .hyper_periods(5)
        .build()
        .unwrap()
        .run();
    assert_eq!(report.failures().count(), 0, "{}", report.to_table());
    let gains = report.gains();
    assert_eq!(gains.len(), 2);
    for (cell, gain) in gains {
        assert!(
            gain > -0.05,
            "ACS lost to WCS on {}: gain {gain}",
            cell.task_set
        );
    }
    assert_eq!(report.total_deadline_misses(), 0);
}
