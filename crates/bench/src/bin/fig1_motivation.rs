//! **Table 1 / Figures 1–2** — the motivational example, regenerated.
//!
//! Prints the task parameters (Table 1), the WCS static schedule of
//! Fig. 1(a), the greedy ACEC runtime of Fig. 1(b), the stretched
//! schedule of Fig. 2 with its average- and worst-case runs, and the
//! infeasibility of those end times on a 3 V part.
//!
//! ```sh
//! cargo run --release -p acs-bench --bin fig1_motivation
//! ```

use acs_core::{
    evaluate_trace, synthesize_acs, synthesize_wcs, Milestone, ScheduleKind, SolveDiagnostics,
    SpeedBasis, StaticSchedule, SynthesisOptions,
};
use acs_model::units::{Cycles, Energy, Time, Volt};
use acs_model::TaskSet;
use acs_preempt::FullyPreemptiveSchedule;
use acs_workloads::{fig1_end_times, fig2_end_times, motivation, motivation_system};

fn hand_schedule(set: &TaskSet, ends: [Time; 3]) -> StaticSchedule {
    let fps = FullyPreemptiveSchedule::expand(set).expect("3-task frame expands");
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
    .expect("hand schedule is consistent")
}

fn main() {
    let (set, cpu) = motivation();

    println!("Table 1 — task parameters (reconstructed; see crates/workloads/src/motivation.rs):");
    println!(
        "{:>6} {:>10} {:>8} {:>8} {:>8}",
        "task", "period(ms)", "WCEC", "ACEC", "C_eff"
    );
    for t in set.tasks() {
        println!(
            "{:>6} {:>10} {:>8.0} {:>8.0} {:>8.1}",
            t.name(),
            t.period().get(),
            t.wcec().as_cycles(),
            t.acec().as_cycles(),
            t.c_eff()
        );
    }
    println!("processor: f = 50·V cyc/ms, V in [0.5, 4.0] V\n");

    let wcs = hand_schedule(&set, fig1_end_times());
    let acs = hand_schedule(&set, fig2_end_times());
    let acec: Vec<Cycles> = set.tasks().iter().map(|t| t.acec()).collect();
    let wcec: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec()).collect();

    let rows: [(&str, &StaticSchedule, &[Cycles]); 4] = [
        ("Fig 1(a): WCS ends, worst case", &wcs, &wcec),
        ("Fig 1(b): WCS ends, average case", &wcs, &acec),
        ("Fig 2:    ACS ends, average case", &acs, &acec),
        ("Fig 2':   ACS ends, worst case", &acs, &wcec),
    ];
    println!(
        "{:<36} {:>10} {:>26}",
        "scenario", "energy(C)", "finish times (ms)"
    );
    let mut energies = Vec::new();
    for (name, sched, totals) in rows {
        let tr = evaluate_trace(sched, &set, &cpu, totals, SpeedBasis::WorstRemaining);
        let fins: Vec<String> = tr
            .finish
            .iter()
            .map(|f| format!("{:.2}", f.as_ms()))
            .collect();
        println!(
            "{:<36} {:>10.0} {:>26}",
            name,
            tr.energy.as_units(),
            fins.join(", ")
        );
        energies.push(tr.energy.as_units());
    }
    println!(
        "\nACS-vs-WCS average-case improvement: {:.1}%   (paper: 24%)",
        100.0 * (1.0 - energies[2] / energies[1])
    );
    println!(
        "ACS worst-case increase:             {:.1}%   (paper: 33%)",
        100.0 * (energies[3] / energies[0] - 1.0)
    );

    // Infeasibility at 3 V.
    let (set3, cpu3) = motivation_system(Volt::from_volts(3.0));
    let acs3 = hand_schedule(&set3, fig2_end_times());
    let tr = evaluate_trace(&acs3, &set3, &cpu3, &wcec, SpeedBasis::WorstRemaining);
    println!(
        "\nWith Vmax = 3 V the Fig. 2 ends saturate in the worst case: \
         saturated = {}, lateness = {:.2} ms (paper: infeasible).",
        tr.saturated, tr.max_lateness_ms
    );

    // And the synthesizer recovers both schedules automatically.
    let opts = SynthesisOptions::default();
    let swcs = synthesize_wcs(&set, &cpu, &opts).expect("WCS synthesis");
    let sacs = synthesize_acs(&set, &cpu, &opts).expect("ACS synthesis");
    let fmt = |s: &StaticSchedule| -> Vec<String> {
        s.milestones()
            .iter()
            .map(|m| format!("{:.2}", m.end_time.as_ms()))
            .collect()
    };
    println!(
        "\nSynthesized WCS end times: [{}]  (paper Fig. 1(a): 6.67, 13.33, 20)",
        fmt(&swcs).join(", ")
    );
    println!(
        "Synthesized ACS end times: [{}]  (paper Fig. 2:    10, 15, 20)",
        fmt(&sacs).join(", ")
    );
}
