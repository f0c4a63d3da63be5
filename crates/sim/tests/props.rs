//! Property-based tests for the simulator's accounting invariants.

use acs_core::{synthesize_wcs, SynthesisOptions};
use acs_model::units::{Cycles, Ticks, Volt};
use acs_model::{Task, TaskId, TaskSet};
use acs_power::{FreqModel, Processor};
use acs_sim::{GreedyReclaim, NoDvs, SimOptions, Simulator};
use proptest::prelude::*;

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

/// A small feasible task set from raw parts (utilization ≤ 60%).
fn arb_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec((2u64..16, 0.05f64..0.3), 1..4).prop_map(|specs| {
        let fmax = 200.0;
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, &(p, u))| {
                let wcec = u * p as f64 * fmax;
                Task::builder(format!("t{i}"), Ticks::new(p))
                    .wcec(Cycles::from_cycles(wcec))
                    .bcec(Cycles::from_cycles(wcec * 0.1))
                    .acec(Cycles::from_cycles(wcec * 0.55))
                    .build()
                    .unwrap()
            })
            .collect();
        TaskSet::new(tasks).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Accounting: per-task energies sum to the total; busy + idle covers
    /// the horizon exactly (no overhead configured, feasible schedule).
    #[test]
    fn energy_and_time_accounting(set in arb_set(), frac in 0.1f64..1.0) {
        let cpu = cpu();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let totals: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec() * frac).collect();
        let hp = 3u64;
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .with_options(SimOptions { hyper_periods: hp, deadline_tol_ms: 1e-3, ..Default::default() })
            .run(&mut |t: TaskId, _: u64| totals[t.0])
            .unwrap();
        let r = &out.report;
        prop_assert_eq!(r.deadline_misses, 0);
        let per_task: f64 = r.per_task_energy.iter().map(|e| e.as_units()).sum();
        prop_assert!((per_task - r.energy.as_units()).abs() < 1e-9 * r.energy.as_units().max(1.0));
        let horizon = hp as f64 * set.hyper_period().get() as f64;
        let covered = r.busy_time.as_ms() + r.idle_time.as_ms();
        prop_assert!((covered - horizon).abs() < 1e-6 * horizon,
            "busy {} + idle {} != horizon {}", r.busy_time, r.idle_time, horizon);
        prop_assert_eq!(r.jobs_completed as u64, hp * set.total_instances());
    }

    /// Determinism: identical seeds and configurations give identical
    /// reports.
    #[test]
    fn runs_are_deterministic(set in arb_set(), seed in 0u64..1000) {
        let cpu = cpu();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let run = || {
            let mut draws = acs_workloads::TaskWorkloads::paper(&set, seed);
            Simulator::new(&set, &cpu, GreedyReclaim)
                .with_schedule(&sched)
                .with_options(SimOptions { hyper_periods: 2, deadline_tol_ms: 1e-3, ..Default::default() })
                .run(&mut draws)
                .unwrap()
        };
        let (a, b) = (run().report, run().report);
        prop_assert_eq!(a, b);
    }

    /// No-DVS energy is exactly `Σ c_eff·vmax²·executed` and the busy
    /// time is `executed / f_max`.
    #[test]
    fn no_dvs_energy_closed_form(set in arb_set(), frac in 0.1f64..1.0) {
        let cpu = cpu();
        let totals: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec() * frac).collect();
        let out = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |t: TaskId, _: u64| totals[t.0])
            .unwrap();
        let vmax = cpu.vmax().as_volts();
        let expected: f64 = set
            .iter()
            .map(|(tid, t)| {
                t.c_eff() * vmax * vmax * totals[tid.0].as_cycles()
                    * set.instances_of(tid) as f64
            })
            .sum();
        prop_assert!((out.report.energy.as_units() - expected).abs() < 1e-6 * expected.max(1.0));
        let cycles: f64 = set
            .iter()
            .map(|(tid, _)| totals[tid.0].as_cycles() * set.instances_of(tid) as f64)
            .sum();
        let expected_busy = cycles / cpu.f_max().as_cycles_per_ms();
        prop_assert!((out.report.busy_time.as_ms() - expected_busy).abs() < 1e-6 * expected_busy.max(1.0));
    }

    /// Greedy never uses more energy than no-DVS on the same draws.
    #[test]
    fn greedy_bounded_by_no_dvs(set in arb_set(), frac in 0.1f64..1.0) {
        let cpu = cpu();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let totals: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec() * frac).collect();
        let greedy = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .with_options(SimOptions { deadline_tol_ms: 1e-3, ..Default::default() })
            .run(&mut |t: TaskId, _: u64| totals[t.0])
            .unwrap();
        let flat = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |t: TaskId, _: u64| totals[t.0])
            .unwrap();
        prop_assert!(greedy.report.energy.as_units() <= flat.report.energy.as_units() * (1.0 + 1e-9));
    }
}
