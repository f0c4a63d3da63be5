//! Bit pins of the default and quick synthesis profiles on one small
//! preemptive set.
//!
//! Every golden that runs `synthesis default` or `acs_multistart on` is
//! a release-only `#[ignore]` test, and the fast goldens run only
//! `synthesis quick`. This suite pins both profiles in the default test
//! run: for each of the four offline solves (WCS, ACS warm-started from
//! WCS, ACS cold and the two-start pick) it compares the evaluation and
//! outer-iteration counts, both predicted energies by `to_bits`, and an
//! FNV-1a digest of every milestone's bits. Any change to the solver's
//! arithmetic that moves one bit of one iterate moves at least one of
//! these, so a solver speedup that claims identical bits is checked
//! here in seconds, in debug.

use acsched::prelude::*;

/// 3 tasks with periods 10/15/30 ms: 12 sub-instances, utilization 0.7
/// at 4 V. The warm and cold ACS solves land in different basins, so
/// `synthesize_acs_best` has a real pick to make.
fn task_set() -> TaskSet {
    let task = |name: &str, period: u64, wcec: f64, acec: f64| {
        Task::builder(name, Ticks::new(period))
            .wcec(Cycles::from_cycles(wcec))
            .acec(Cycles::from_cycles(acec))
            .build()
            .unwrap()
    };
    TaskSet::new(vec![
        task("a", 10, 500.0, 300.0),
        task("b", 15, 600.0, 300.0),
        task("c", 30, 1500.0, 800.0),
    ])
    .unwrap()
}

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

/// What one solve pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    evaluations: usize,
    outer_iterations: usize,
    avg_energy_bits: u64,
    worst_energy_bits: u64,
    milestone_digest: u64,
}

/// FNV-1a over the little-endian bits of every milestone's end time,
/// worst-case workload and average workload, in sub-instance order.
fn milestone_digest(schedule: &StaticSchedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in schedule.milestones() {
        for v in [
            m.end_time.as_ms(),
            m.worst_workload.as_cycles(),
            m.avg_workload.as_cycles(),
        ] {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn pin(schedule: &StaticSchedule) -> Pin {
    let d = schedule.diagnostics();
    Pin {
        evaluations: d.evaluations,
        outer_iterations: d.outer_iterations,
        avg_energy_bits: d.predicted_avg_energy.as_units().to_bits(),
        worst_energy_bits: d.predicted_worst_energy.as_units().to_bits(),
        milestone_digest: milestone_digest(schedule),
    }
}

/// Runs the four solves under `options` and compares each with its pin,
/// in the order WCS, ACS warm, ACS cold, ACS best.
fn check(options: &SynthesisOptions, want: [Pin; 4]) {
    let (set, cpu) = (task_set(), cpu());
    let wcs = synthesize_wcs(&set, &cpu, options).unwrap();
    let warm = synthesize_acs_warm(&set, &cpu, options, &wcs).unwrap();
    let cold = synthesize_acs(&set, &cpu, options).unwrap();
    let best = synthesize_acs_best(&set, &cpu, options, &wcs).unwrap();
    let got = [pin(&wcs), pin(&warm), pin(&cold), pin(&best)];
    for (name, (g, w)) in ["wcs", "acs warm", "acs cold", "acs best"]
        .iter()
        .zip(got.iter().zip(&want))
    {
        assert_eq!(
            g,
            w,
            "{name}: the solver's bits moved (predicted average energy {})",
            f64::from_bits(g.avg_energy_bits)
        );
    }
}

#[test]
fn default_profile_solves_keep_their_bits() {
    // ACS warm predicts 8724.65, ACS cold 8719.66: the pick is cold.
    check(
        &SynthesisOptions::default(),
        [
            Pin {
                evaluations: 1483,
                outer_iterations: 9,
                avg_energy_bits: 4667892785547836396,
                worst_energy_bits: 4674758403511835320,
                milestone_digest: 6059309610023816683,
            },
            Pin {
                evaluations: 10358,
                outer_iterations: 22,
                avg_energy_bits: 4666022040033854895,
                worst_energy_bits: 4676234605935794779,
                milestone_digest: 2719436029841595670,
            },
            Pin {
                evaluations: 6486,
                outer_iterations: 17,
                avg_energy_bits: 4666019299562881991,
                worst_energy_bits: 4676221256238328484,
                milestone_digest: 1819174696798010045,
            },
            Pin {
                evaluations: 6486,
                outer_iterations: 17,
                avg_energy_bits: 4666019299562881991,
                worst_energy_bits: 4676221256238328484,
                milestone_digest: 1819174696798010045,
            },
        ],
    );
}

#[test]
fn quick_profile_solves_keep_their_bits() {
    // ACS warm predicts 8800.96, ACS cold 8863.51: the pick is warm.
    check(
        &SynthesisOptions::quick(),
        [
            Pin {
                evaluations: 374,
                outer_iterations: 8,
                avg_energy_bits: 4667892957571532949,
                worst_energy_bits: 4674758403627329414,
                milestone_digest: 4683197383516102166,
            },
            Pin {
                evaluations: 1071,
                outer_iterations: 8,
                avg_energy_bits: 4666063992491668801,
                worst_energy_bits: 4676250760564743877,
                milestone_digest: 17909833591763368062,
            },
            Pin {
                evaluations: 1436,
                outer_iterations: 8,
                avg_energy_bits: 4666098381672897371,
                worst_energy_bits: 4676064081531357654,
                milestone_digest: 7015680119093170504,
            },
            Pin {
                evaluations: 1071,
                outer_iterations: 8,
                avg_energy_bits: 4666063992491668801,
                worst_energy_bits: 4676250760564743877,
                milestone_digest: 17909833591763368062,
            },
        ],
    );
}
