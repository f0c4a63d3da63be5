//! Writing your own online-DVS policy — the open `Policy` API.
//!
//! Implements a stateful "exponential smoothing" policy in ~25 lines:
//! it tracks each task's observed workload with an EWMA and dispatches
//! at the speed that would finish the *predicted* workload exactly at
//! the milestone, never below the greedy worst-case-safe speed... then
//! runs it through a single `Simulator` and through a parallel
//! `Campaign` against the built-ins, with zero changes to `acs-sim`.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use acsched::prelude::*;

/// EWMA workload predictor: runs above the worst-case-safe greedy speed
/// in proportion to the predicted demand, banking slack early when jobs
/// have been running heavy (greedy is the floor, so deadlines stay
/// guaranteed).
struct EwmaBoost {
    predicted: Vec<f64>,
    alpha: f64,
}

impl EwmaBoost {
    fn new(alpha: f64) -> Self {
        EwmaBoost {
            predicted: Vec::new(),
            alpha,
        }
    }
}

impl Policy for EwmaBoost {
    fn name(&self) -> &str {
        "ewma-boost"
    }
    fn needs_schedule(&self) -> bool {
        true
    }
    fn on_start(&mut self, set: &TaskSet, _cpu: &Processor) {
        self.predicted = set.tasks().iter().map(|t| t.acec().as_cycles()).collect();
    }
    fn on_completion(&mut self, task: TaskId, actual: Cycles, _set: &TaskSet, _cpu: &Processor) {
        let p = &mut self.predicted[task.0];
        *p += self.alpha * (actual.as_cycles() - *p);
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        let window = (ctx.chunk_end - ctx.now).as_ms();
        if window <= 0.0 {
            return ctx.cpu.f_max();
        }
        let greedy = ctx.chunk_budget_remaining.as_cycles() / window;
        let wcec = ctx.set.tasks()[ctx.task.0].wcec().as_cycles();
        let fraction = (self.predicted[ctx.task.0] / wcec).clamp(0.0, 1.0);
        // Hedge: the heavier the predicted demand, the more we run above
        // the worst-case-safe greedy speed to bank slack early (greedy
        // itself is the floor, so deadlines stay guaranteed).
        Freq::from_cycles_per_ms(greedy * (1.0 + 0.5 * fraction))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cpu = Processor::builder(FreqModel::linear(50.0)?)
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()?;
    let set = cnc(cpu.f_max(), 0.1, 0.7)?;

    // --- one-off run through the Simulator ---
    let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick())?;
    let mut draws = TaskWorkloads::paper(&set, 5);
    let out = Simulator::new(&set, &cpu, EwmaBoost::new(0.2))
        .with_schedule(&schedule)
        .with_options(SimOptions {
            hyper_periods: 50,
            deadline_tol_ms: 1e-3,
            ..Default::default()
        })
        .run(&mut draws)?;
    println!(
        "Simulator: ewma-boost on CNC — energy {:.0}, misses {}\n",
        out.report.energy.as_units(),
        out.report.deadline_misses
    );
    assert!(out.report.all_deadlines_met());

    // --- head-to-head campaign against the built-ins ---
    let report = Campaign::builder()
        .task_set("cnc@0.1", set)
        .processor("linear", cpu)
        .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
        .policy(PolicySpec::greedy())
        .policy(PolicySpec::static_speed())
        .policy(PolicySpec::custom(|| Box::new(EwmaBoost::new(0.2))))
        .workload(WorkloadSpec::Paper)
        .seeds(0..8)
        .hyper_periods(50)
        .build()?
        .run();
    print!("{}", report.to_table());
    assert_eq!(report.total_deadline_misses(), 0);
    println!(
        "\nA user policy is a first-class citizen: same grid, same report, \
         no changes to acs-sim internals."
    );
    Ok(())
}
