//! Integration tests pinning the paper's §2.2 numbers through the public
//! facade: Table 1, Figs. 1–2, and the synthesizer recovering both hand
//! schedules.

use acsched::core::{Milestone, ScheduleKind, SolveDiagnostics, StaticSchedule};
use acsched::prelude::*;
use acsched::workloads::{fig1_end_times, fig2_end_times, motivation, motivation_system};

fn hand_schedule(set: &TaskSet, ends: [Time; 3]) -> StaticSchedule {
    let fps = FullyPreemptiveSchedule::expand(set).unwrap();
    let milestones = fps
        .sub_instances()
        .iter()
        .zip(ends)
        .map(|(s, end_time)| Milestone {
            sub: s.id,
            end_time,
            worst_workload: Cycles::from_cycles(1000.0),
            avg_workload: Cycles::from_cycles(500.0),
        })
        .collect();
    StaticSchedule::from_parts(
        fps,
        milestones,
        ScheduleKind::Custom,
        SolveDiagnostics {
            converged: true,
            max_violation: 0.0,
            outer_iterations: 0,
            evaluations: 0,
            predicted_avg_energy: Energy::ZERO,
            predicted_worst_energy: Energy::ZERO,
        },
    )
    .unwrap()
}

fn acec(set: &TaskSet) -> Vec<Cycles> {
    set.tasks().iter().map(|t| t.acec()).collect()
}

fn wcec(set: &TaskSet) -> Vec<Cycles> {
    set.tasks().iter().map(|t| t.wcec()).collect()
}

#[test]
fn fig1b_energy_and_finish_times() {
    let (set, cpu) = motivation();
    let sched = hand_schedule(&set, fig1_end_times());
    let tr = evaluate_trace(&sched, &set, &cpu, &acec(&set), SpeedBasis::WorstRemaining);
    // Paper Fig. 1(b): finishes at 3.33, 8.33, ~14.1 ms.
    assert!((tr.finish[0].as_ms() - 10.0 / 3.0).abs() < 1e-9);
    assert!((tr.finish[1].as_ms() - 25.0 / 3.0).abs() < 1e-9);
    assert!((tr.finish[2].as_ms() - 14.166_67).abs() < 1e-3);
    // Energy ≈ 7969·C (paper prints 7961 with coarser rounding).
    assert!((tr.energy.as_units() - 7969.4).abs() < 1.0);
}

#[test]
fn fig2_improvement_and_worst_case_increase() {
    let (set, cpu) = motivation();
    let wcs = hand_schedule(&set, fig1_end_times());
    let acs = hand_schedule(&set, fig2_end_times());

    let e1 = evaluate_trace(&wcs, &set, &cpu, &acec(&set), SpeedBasis::WorstRemaining).energy;
    let e2 = evaluate_trace(&acs, &set, &cpu, &acec(&set), SpeedBasis::WorstRemaining).energy;
    assert!((e2.as_units() - 6000.0).abs() < 1e-6);
    let improvement = improvement_over(e1, e2);
    assert!(
        (improvement - 0.247).abs() < 0.005,
        "improvement = {improvement}"
    );

    let w1 = evaluate_trace(&wcs, &set, &cpu, &wcec(&set), SpeedBasis::WorstRemaining).energy;
    let w2 = evaluate_trace(&acs, &set, &cpu, &wcec(&set), SpeedBasis::WorstRemaining).energy;
    assert!((w1.as_units() - 27000.0).abs() < 1e-6);
    assert!((w2.as_units() - 36000.0).abs() < 1e-6);
}

#[test]
fn fig2_needs_exactly_4v_in_worst_case() {
    let (set, cpu) = motivation();
    let acs = hand_schedule(&set, fig2_end_times());
    let tr = evaluate_trace(&acs, &set, &cpu, &wcec(&set), SpeedBasis::WorstRemaining);
    assert!((tr.voltage[0].unwrap().as_volts() - 2.0).abs() < 1e-9);
    assert!((tr.voltage[1].unwrap().as_volts() - 4.0).abs() < 1e-9);
    assert!((tr.voltage[2].unwrap().as_volts() - 4.0).abs() < 1e-9);
    assert!(!tr.saturated);
    assert!(tr.max_lateness_ms < 1e-9);
}

#[test]
fn fig2_infeasible_on_3v_part() {
    let (set, cpu) = motivation_system(Volt::from_volts(3.0));
    let acs = hand_schedule(&set, fig2_end_times());
    // Analytic trace saturates...
    let tr = evaluate_trace(&acs, &set, &cpu, &wcec(&set), SpeedBasis::WorstRemaining);
    assert!(tr.saturated);
    assert!(tr.max_lateness_ms > 1.0);
    // ...the verifier rejects...
    assert!(verify_worst_case(&acs, &set, &cpu, 1e-6).is_err());
    // ...and the simulator records a deadline miss.
    let totals = wcec(&set);
    let out = Simulator::new(&set, &cpu, GreedyReclaim)
        .with_schedule(&acs)
        .run(&mut |t: TaskId, _: u64| totals[t.0])
        .unwrap();
    assert!(out.report.deadline_misses > 0);
}

#[test]
fn synthesizer_recovers_fig1a_wcs_schedule() {
    let (set, cpu) = motivation();
    let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
    let ends: Vec<f64> = wcs
        .milestones()
        .iter()
        .map(|m| m.end_time.as_ms())
        .collect();
    assert!((ends[0] - 20.0 / 3.0).abs() < 0.15, "{ends:?}");
    assert!((ends[1] - 40.0 / 3.0).abs() < 0.15, "{ends:?}");
    assert!((ends[2] - 20.0).abs() < 0.01, "{ends:?}");
}

#[test]
fn synthesizer_recovers_fig2_acs_schedule() {
    let (set, cpu) = motivation();
    let acs = synthesize_acs(&set, &cpu, &SynthesisOptions::default()).unwrap();
    let ends: Vec<f64> = acs
        .milestones()
        .iter()
        .map(|m| m.end_time.as_ms())
        .collect();
    // The paper's optimum {10, 15, 20}.
    assert!((ends[0] - 10.0).abs() < 0.2, "{ends:?}");
    assert!((ends[1] - 15.0).abs() < 0.2, "{ends:?}");
    assert!((ends[2] - 20.0).abs() < 0.01, "{ends:?}");
    // Predicted average energy ≈ 6000·C.
    let e = acs.diagnostics().predicted_avg_energy.as_units();
    assert!((e - 6000.0).abs() < 60.0, "predicted = {e}");
}

#[test]
fn fig34_expansion_structure() {
    let set = TaskSet::new(
        [3u64, 6, 9]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Task::builder(format!("T{i}"), Ticks::new(p))
                    .wcec(Cycles::from_cycles(10.0))
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap();
    let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
    assert_eq!(fps.len(), 18);
    assert_eq!(fps.grid().segment_count(), 6);
    let labels: Vec<String> = fps
        .sub_instances()
        .iter()
        .take(6)
        .map(|s| s.label())
        .collect();
    assert_eq!(
        labels,
        ["T0,1,1", "T1,1,1", "T2,1,1", "T0,2,1", "T1,1,2", "T2,1,2"]
    );
}

#[test]
fn fig5_fill_rule() {
    use acsched::core::fill::fill_amounts;
    assert_eq!(
        fill_amounts(&[10.0, 10.0, 10.0], 15.0),
        vec![10.0, 5.0, 0.0]
    );
    assert_eq!(
        fill_amounts(&[10.0, 10.0, 10.0], 30.0),
        vec![10.0, 10.0, 10.0]
    );
}
