//! Cross-policy integration tests: the energy ordering the system is
//! supposed to deliver, and safety of every policy combination.

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
    let cfg = RandomSetConfig::paper(4, 0.1, Freq::from_cycles_per_ms(200.0));
    generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn energy_of(
    set: &TaskSet,
    cpu: &Processor,
    policy: impl IntoPolicy,
    schedule: Option<&StaticSchedule>,
    seed: u64,
) -> (f64, usize) {
    let mut draws = TaskWorkloads::paper(set, seed);
    let mut sim = Simulator::new(set, cpu, policy).with_options(SimOptions {
        hyper_periods: 50,
        deadline_tol_ms: 1e-3,
        ..Default::default()
    });
    if let Some(s) = schedule {
        sim = sim.with_schedule(s);
    }
    let out = sim.run(&mut draws).unwrap();
    (out.report.energy.as_units(), out.report.deadline_misses)
}

/// no-DVS ≥ static-only ≥ greedy, for both schedules, with no misses for
/// the schedule-based policies.
#[test]
fn policy_energy_ordering() {
    let cpu = cpu();
    for seed in [2u64, 9, 31] {
        let set = random_set(seed);
        let opts = SynthesisOptions::quick();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs).unwrap();
        for schedule in [&wcs, &acs] {
            let (e_flat, m0) = energy_of(&set, &cpu, NoDvs, None, seed);
            let (e_static, m1) = energy_of(&set, &cpu, StaticSpeed, Some(schedule), seed);
            let (e_greedy, m2) = energy_of(&set, &cpu, GreedyReclaim, Some(schedule), seed);
            assert_eq!(m0 + m1 + m2, 0, "seed {seed}");
            assert!(
                e_static <= e_flat * (1.0 + 1e-9),
                "seed {seed}: static {e_static} > flat {e_flat}"
            );
            assert!(
                e_greedy <= e_static * (1.0 + 1e-9),
                "seed {seed}: greedy {e_greedy} > static {e_static}"
            );
        }
    }
}

/// The headline claim: ACS + greedy uses no more energy than WCS + greedy
/// under identical workloads.
#[test]
fn acs_beats_wcs_at_runtime() {
    let cpu = cpu();
    let mut wins = 0usize;
    let mut total = 0usize;
    for seed in [4u64, 8, 15, 16, 23, 42] {
        let set = random_set(seed);
        let opts = SynthesisOptions::quick();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs).unwrap();
        let (ew, _) = energy_of(&set, &cpu, GreedyReclaim, Some(&wcs), seed);
        let (ea, _) = energy_of(&set, &cpu, GreedyReclaim, Some(&acs), seed);
        total += 1;
        if ea <= ew * 1.01 {
            wins += 1;
        }
    }
    // Runtime draws differ from the ACEC the objective optimizes, so
    // allow a rare tie-ish loss but require a dominant win rate.
    assert!(wins >= total - 1, "ACS won only {wins}/{total}");
}

/// ccRM is safe on low-utilization sets and reclaims energy vs no-DVS.
#[test]
fn ccrm_baseline_behaves() {
    let cpu = cpu();
    let set = random_set(77);
    let (e_flat, _) = energy_of(&set, &cpu, NoDvs, None, 5);
    let (e_ccrm, misses) = energy_of(&set, &cpu, CcRm::new(), None, 5);
    assert_eq!(misses, 0);
    assert!(e_ccrm < e_flat);
}

/// Discrete voltage levels: round-up keeps every deadline; energy lands
/// between the continuous run and no-DVS.
#[test]
fn discrete_levels_safe_and_bounded() {
    let set = random_set(3);
    let base = cpu();
    let opts = SynthesisOptions::quick();
    let wcs = synthesize_wcs(&set, &base, &opts).unwrap();
    let (e_cont, _) = energy_of(&set, &base, GreedyReclaim, Some(&wcs), 5);

    let table = LevelTable::new(
        [0.3, 1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|&v| Volt::from_volts(v))
            .collect(),
    )
    .unwrap();
    let quant = Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .discrete_levels(table)
        .build()
        .unwrap();
    let (e_disc, misses) = energy_of(&set, &quant, GreedyReclaim, Some(&wcs), 5);
    let (e_flat, _) = energy_of(&set, &quant, NoDvs, None, 5);
    assert_eq!(misses, 0);
    assert!(e_disc >= e_cont * (1.0 - 1e-9), "quantization cannot help");
    assert!(e_disc <= e_flat * (1.0 + 1e-9));
}

/// Transition overhead strictly increases energy and is charged per
/// switch.
#[test]
fn transition_overhead_monotone() {
    let set = random_set(21);
    let opts = SynthesisOptions::quick();
    let base = cpu();
    let wcs = synthesize_wcs(&set, &base, &opts).unwrap();
    let (e0, _) = energy_of(&set, &base, GreedyReclaim, Some(&wcs), 5);
    let lossy = Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .transition_overhead(TransitionOverhead {
            time: TimeSpan::from_ms(0.001),
            energy: Energy::from_units(5.0),
        })
        .build()
        .unwrap();
    let (e1, _) = energy_of(&set, &lossy, GreedyReclaim, Some(&wcs), 5);
    assert!(e1 > e0, "overhead must cost energy: {e1} vs {e0}");
}
