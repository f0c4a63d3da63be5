//! End-to-end pipeline tests: generation → expansion → synthesis →
//! simulation, cross-checking the three independent implementations of
//! the greedy runtime (NLP objective, analytic trace, event simulator).

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

fn random_set(n: usize, ratio: f64, seed: u64) -> TaskSet {
    let cfg = RandomSetConfig::paper(n, ratio, Freq::from_cycles_per_ms(200.0));
    generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
}

/// The simulator and the analytic trace are two independent codebases;
/// on deterministic per-task workloads they must agree exactly.
#[test]
fn simulator_matches_analytic_trace() {
    let cpu = cpu();
    for seed in [3u64, 7, 42] {
        let set = random_set(5, 0.1, seed);
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let acs = synthesize_acs_warm(&set, &cpu, &SynthesisOptions::quick(), &wcs).unwrap();
        for schedule in [&wcs, &acs] {
            for frac in [0.3, 0.55, 1.0] {
                let totals: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec() * frac).collect();
                let analytic =
                    evaluate_trace(schedule, &set, &cpu, &totals, SpeedBasis::WorstRemaining);
                let mut draw = |t: TaskId, _: u64| totals[t.0];
                let out = Simulator::new(&set, &cpu, GreedyReclaim)
                    .with_schedule(schedule)
                    .with_options(SimOptions {
                        deadline_tol_ms: 1e-3,
                        ..Default::default()
                    })
                    .run(&mut draw)
                    .unwrap();
                let (a, s) = (analytic.energy.as_units(), out.report.energy.as_units());
                // The simulator's completion threshold forgives up to
                // 1e-2 cycles per job (see engine::CYCLE_EPS), so its
                // energy may sit below the analytic trace by at most
                // Σ_jobs 1e-2 · c_eff · vmax² (dust charged at ≤ vmax).
                let vmax = cpu.vmax().as_volts();
                let dust_bound: f64 = set
                    .iter()
                    .map(|(tid, t)| set.instances_of(tid) as f64 * 1e-2 * t.c_eff() * vmax * vmax)
                    .sum();
                assert!(
                    (a - s).abs() <= dust_bound + 1e-9 * a.max(1.0),
                    "seed {seed} frac {frac}: analytic {a} vs simulated {s} \
                     (dust bound {dust_bound})"
                );
            }
        }
    }
}

/// ACS (warm-started) never predicts more average-case energy than WCS,
/// and the runtime confirms it.
#[test]
fn acs_dominates_wcs_on_predicted_energy() {
    let cpu = cpu();
    for seed in [5u64, 23, 71] {
        for ratio in [0.1, 0.5] {
            let set = random_set(4, ratio, seed);
            let opts = SynthesisOptions::quick();
            let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
            let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs).unwrap();
            let ew = wcs.diagnostics().predicted_avg_energy.as_units();
            let ea = acs.diagnostics().predicted_avg_energy.as_units();
            assert!(
                ea <= ew * (1.0 + 1e-9),
                "seed {seed} ratio {ratio}: ACS {ea} > WCS {ew}"
            );
        }
    }
}

/// The improvement shrinks as workloads become fixed (ratio → 1):
/// with BCEC = WCEC there is no variation to exploit, so ACS ≈ WCS.
///
/// Both sides get the same solver effort: one cold solve plus one warm
/// continuation. Comparing cold WCS against warm-started ACS instead
/// measures solver convergence, not the scheduling approach (the warm
/// side always sees strictly more optimization on an identical
/// objective once ACEC = WCEC).
#[test]
fn no_variation_means_no_advantage() {
    let cpu = cpu();
    let set = random_set(4, 1.0, 11); // BCEC = WCEC exactly
    let opts = SynthesisOptions::quick();
    let base = synthesize_wcs(&set, &cpu, &opts).unwrap();
    let wcs = synthesize_wcs_warm(&set, &cpu, &opts, &base).unwrap();
    let acs = synthesize_acs_warm(&set, &cpu, &opts, &base).unwrap();
    let ew = wcs.diagnostics().predicted_avg_energy.as_units();
    let ea = acs.diagnostics().predicted_avg_energy.as_units();
    let gain = 1.0 - ea / ew;
    assert!(
        gain.abs() < 0.02,
        "unexpected gain {gain} with fixed workloads"
    );
}

/// Milestone conservation: each instance's worst-case shares sum to the
/// task WCEC; average shares follow the fill rule against the budgets.
#[test]
fn milestone_conservation_and_fill() {
    let cpu = cpu();
    let set = random_set(5, 0.1, 13);
    let acs = synthesize_acs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
    for (tid, task) in set.iter() {
        for inst in 0..acs.fps().instances_of(tid) {
            let ms = acs.milestones_of(InstanceId {
                task: tid,
                index: inst,
            });
            let worst: f64 = ms.iter().map(|m| m.worst_workload.as_cycles()).sum();
            let avg: f64 = ms.iter().map(|m| m.avg_workload.as_cycles()).sum();
            assert!((worst - task.wcec().as_cycles()).abs() < 1e-6);
            assert!((avg - task.acec().as_cycles()).abs() < 1e-6);
            // Fill rule: prefix property — once a chunk is not full, all
            // later chunks are empty.
            let mut saw_partial = false;
            for m in &ms {
                let full = (m.avg_workload.as_cycles() - m.worst_workload.as_cycles()).abs() < 1e-9;
                if saw_partial {
                    assert!(
                        m.avg_workload.as_cycles() < 1e-9,
                        "fill rule violated on {}",
                        m.sub
                    );
                }
                if !full {
                    saw_partial = true;
                }
            }
        }
    }
}

/// Real-life sets go through the whole pipeline.
#[test]
fn cnc_and_gap_end_to_end() {
    let cpu = cpu();
    for set in [
        cnc(cpu.f_max(), 0.5, 0.7).unwrap(),
        gap(cpu.f_max(), 0.5, 0.7).unwrap(),
    ] {
        let opts = SynthesisOptions::quick();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs).unwrap();
        assert!(verify_worst_case(&acs, &set, &cpu, 1e-4).is_ok());
        let mut draws = TaskWorkloads::paper(&set, 1);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&acs)
            .with_options(SimOptions {
                hyper_periods: 3,
                deadline_tol_ms: 1e-3,
                ..Default::default()
            })
            .run(&mut draws)
            .unwrap();
        assert_eq!(out.report.deadline_misses, 0);
    }
}
