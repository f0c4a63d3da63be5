//! Property-based safety tests: schedules produced by the synthesizers
//! never miss a hard deadline, for any workload realization.
//!
//! This is the paper's central guarantee ("yet still guarantees no
//! deadline violation during the worst-case scenario") extended to the
//! whole workload space: the greedy runtime dispatches every milestone no
//! later than its worst-case analog, so *any* draw in `[0, WCEC]` is
//! safe.

use acsched::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds one random paper-style task set from a seed.
fn random_set(num_tasks: usize, ratio: f64, seed: u64) -> TaskSet {
    let cfg = acsched::workloads::RandomSetConfig::paper(
        num_tasks,
        ratio,
        Freq::from_cycles_per_ms(200.0),
    );
    acsched::workloads::generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("generates")
}

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case synthesizes a schedule: keep the count sane
        .. ProptestConfig::default()
    })]

    /// ACS schedules meet every deadline for arbitrary workload seeds and
    /// task-set shapes.
    #[test]
    fn acs_never_misses_deadlines(
        num_tasks in 2usize..6,
        ratio in prop_oneof![Just(0.1), Just(0.5), Just(0.9)],
        set_seed in 0u64..500,
        workload_seed in 0u64..1_000_000,
    ) {
        let set = random_set(num_tasks, ratio, set_seed);
        let cpu = cpu();
        let schedule = synthesize_acs(&set, &cpu, &SynthesisOptions::quick())
            .expect("synthesis succeeds at 70% utilization");
        let mut draws = TaskWorkloads::paper(&set, workload_seed);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&schedule)
            .with_options(SimOptions { hyper_periods: 5, deadline_tol_ms: 1e-3, ..Default::default() })
            .run(&mut draws)
            .expect("simulation runs");
        prop_assert_eq!(out.report.deadline_misses, 0);
        prop_assert_eq!(out.report.jobs_completed as u64, 5 * set.total_instances());
    }

    /// The all-WCEC trace of a synthesized schedule finishes every
    /// sub-instance exactly at its milestone (the static schedule *is*
    /// the worst-case execution), and the worst-case verifier agrees.
    #[test]
    fn worst_case_trace_lands_on_milestones(
        num_tasks in 2usize..6,
        set_seed in 0u64..500,
    ) {
        let set = random_set(num_tasks, 0.5, set_seed);
        let cpu = cpu();
        let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick())
            .expect("synthesis succeeds");
        prop_assert!(verify_worst_case(&schedule, &set, &cpu, 1e-4).is_ok());
        let totals: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec()).collect();
        let tr = evaluate_trace(&schedule, &set, &cpu, &totals, SpeedBasis::WorstRemaining);
        prop_assert!(tr.max_lateness_ms < 1e-4, "lateness {}", tr.max_lateness_ms);
        // Every milestone with workload is hit from below: finish ≤ e_u,
        // and for the *binding* ones, close to e_u.
        for (u, f) in tr.finish.iter().enumerate() {
            let m = schedule.milestones()[u];
            if m.worst_workload.as_cycles() > 1.0 {
                prop_assert!(f.as_ms() <= m.end_time.as_ms() + 1e-4);
            }
        }
    }

    /// Workload monotonicity: larger draws can only increase energy under
    /// the same schedule (energy is monotone in executed cycles for the
    /// greedy policy).
    #[test]
    fn energy_monotone_in_workload(
        set_seed in 0u64..200,
        scale_a in 0.2f64..1.0,
    ) {
        let set = random_set(3, 0.1, set_seed);
        let cpu = cpu();
        let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick())
            .expect("synthesis succeeds");
        let scale_b = (scale_a * 0.5).max(0.05);
        let totals_hi: Vec<Cycles> = set.tasks().iter()
            .map(|t| t.wcec() * scale_a).collect();
        let totals_lo: Vec<Cycles> = set.tasks().iter()
            .map(|t| t.wcec() * scale_b).collect();
        let e_hi = evaluate_trace(&schedule, &set, &cpu, &totals_hi, SpeedBasis::WorstRemaining).energy;
        let e_lo = evaluate_trace(&schedule, &set, &cpu, &totals_lo, SpeedBasis::WorstRemaining).energy;
        prop_assert!(e_lo.as_units() <= e_hi.as_units() + 1e-9,
            "lo {} > hi {}", e_lo, e_hi);
    }
}

/// Deterministic regression companion to the proptest: a handful of fixed
/// seeds exercised at more hyper-periods.
#[test]
fn fixed_seeds_many_hyper_periods() {
    let cpu = cpu();
    for seed in [1u64, 17, 99] {
        let set = random_set(4, 0.1, seed);
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let acs = synthesize_acs_warm(&set, &cpu, &SynthesisOptions::quick(), &wcs).unwrap();
        for schedule in [&wcs, &acs] {
            let mut draws = TaskWorkloads::paper(&set, seed ^ 0xF00D);
            let out = Simulator::new(&set, &cpu, GreedyReclaim)
                .with_schedule(schedule)
                .with_options(SimOptions {
                    hyper_periods: 100,
                    deadline_tol_ms: 1e-3,
                    ..Default::default()
                })
                .run(&mut draws)
                .unwrap();
            assert_eq!(out.report.deadline_misses, 0, "seed {seed}");
        }
    }
}

/// Regression: bimodal workloads (frequent exact-WCEC draws) amplified
/// sub-cycle budget residue into multi-millisecond deadline misses until
/// the repair pass gained its forward feasibility sweep and the runtime
/// its completion threshold. Seed 2010 is the original reproducer.
#[test]
fn bimodal_draws_never_miss() {
    let cpu = cpu();
    for seed in [2010u64, 2005, 2007] {
        let set = {
            let cfg =
                acsched::workloads::RandomSetConfig::paper(6, 0.1, Freq::from_cycles_per_ms(200.0));
            acsched::workloads::generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
        };
        let opts = SynthesisOptions::default();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let acs = acsched::core::synthesize_acs_best(&set, &cpu, &opts, &wcs).unwrap();
        let dists: Vec<WorkloadDist> = set
            .tasks()
            .iter()
            .map(|t| WorkloadDist::Bimodal {
                lo: t.bcec().as_cycles(),
                hi: t.wcec().as_cycles(),
                p_heavy: 0.1,
            })
            .collect();
        for schedule in [&wcs, &acs] {
            let mut draws = TaskWorkloads::from_dists(dists.clone(), seed ^ 0xA4);
            let out = Simulator::new(&set, &cpu, GreedyReclaim)
                .with_schedule(schedule)
                .with_options(SimOptions {
                    hyper_periods: 100,
                    deadline_tol_ms: 1e-3,
                    ..Default::default()
                })
                .run(&mut draws)
                .unwrap();
            assert_eq!(out.report.deadline_misses, 0, "seed {seed}");
            assert!(
                out.report.worst_lateness_ms < 1e-3,
                "seed {seed}: lateness {}",
                out.report.worst_lateness_ms
            );
        }
    }
}
