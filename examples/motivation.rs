//! The paper's motivational example (§2.2, Table 1, Figs. 1–2),
//! end to end: reconstructs both hand schedules, replays the greedy
//! runtime under average and worst workloads, and then lets the ACS
//! synthesizer discover the stretched schedule automatically.
//!
//! ```sh
//! cargo run --release --example motivation
//! ```

use acsched::core::{Milestone, ScheduleKind, SolveDiagnostics, StaticSchedule};
use acsched::prelude::*;
use acsched::workloads::{fig1_end_times, fig2_end_times, motivation, reference_energies};

fn hand_schedule(
    set: &TaskSet,
    ends: [Time; 3],
) -> Result<StaticSchedule, Box<dyn std::error::Error>> {
    let fps = FullyPreemptiveSchedule::expand(set)?;
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
    Ok(StaticSchedule::from_parts(
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
    )?)
}

fn replay(
    name: &str,
    set: &TaskSet,
    cpu: &Processor,
    schedule: &StaticSchedule,
    totals: &[Cycles],
) -> Result<Energy, Box<dyn std::error::Error>> {
    let fixed = totals.to_vec();
    let out = Simulator::new(set, cpu, GreedyReclaim)
        .with_schedule(schedule)
        .with_options(SimOptions {
            record_trace: true,
            deadline_tol_ms: 1e-3,
            ..Default::default()
        })
        .run(&mut |t: TaskId, _: u64| fixed[t.0])?;
    println!("--- {name}: energy {:.0}·C", out.report.energy.as_units());
    if let Some(trace) = out.trace {
        print!("{}", render_gantt(&trace, set, 20.0, 60));
    }
    if out.report.deadline_misses > 0 {
        println!(
            "    !! {} deadline miss(es), {} saturated dispatch(es) — infeasible schedule",
            out.report.deadline_misses, out.report.saturated_dispatches
        );
    }
    Ok(out.report.energy)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (set, cpu) = motivation();
    let acec = vec![Cycles::from_cycles(500.0); 3];
    let wcec = vec![Cycles::from_cycles(1000.0); 3];
    let (ref_fig1b, ref_fig2, ref_wcs_worst, ref_fig2_worst) = reference_energies();

    println!("Table 1 system: 3 tasks x (WCEC 1000, ACEC 500), 20 ms frame, f = 50·V\n");

    let wcs = hand_schedule(&set, fig1_end_times())?;
    let acs = hand_schedule(&set, fig2_end_times())?;

    // Fig. 1(b): WCS ends + greedy runtime at ACEC.
    let e1 = replay(
        "Fig. 1(b)  WCS ends {6.7, 13.3, 20}, ACEC run",
        &set,
        &cpu,
        &wcs,
        &acec,
    )?;
    // Fig. 2: stretched ends + greedy runtime at ACEC.
    let e2 = replay(
        "Fig. 2     ACS ends {10, 15, 20}, ACEC run",
        &set,
        &cpu,
        &acs,
        &acec,
    )?;
    println!(
        "=> improvement {:.1}% (paper: 24%; reference energies {ref_fig1b:.0} vs {ref_fig2:.0})\n",
        100.0 * improvement_over(e1, e2)
    );

    // Worst-case replays.
    let w1 = replay("Fig. 1(a)  WCS ends, WCEC run", &set, &cpu, &wcs, &wcec)?;
    let w2 = replay(
        "Fig. 2     ACS ends, WCEC run (needs 4 V)",
        &set,
        &cpu,
        &acs,
        &wcec,
    )?;
    println!(
        "=> worst-case increase {:.1}% (paper: 33%; reference {ref_wcs_worst:.0} vs {ref_fig2_worst:.0})\n",
        100.0 * (w2 / w1 - 1.0)
    );

    // The paper's infeasibility observation: at Vmax = 3 V the stretched
    // schedule cannot survive the worst case.
    let (set3, cpu3) = acsched::workloads::motivation_system(Volt::from_volts(3.0));
    let acs3 = hand_schedule(&set3, fig2_end_times())?;
    println!("With Vmax = 3 V the Fig. 2 ends become infeasible in the worst case:");
    let _ = replay("Fig. 2 @ 3V  WCEC run", &set3, &cpu3, &acs3, &wcec)?;

    // Finally: the NLP finds the stretched schedule on its own.
    let synth = synthesize_acs(&set, &cpu, &SynthesisOptions::default())?;
    let ends: Vec<f64> = synth
        .milestones()
        .iter()
        .map(|m| m.end_time.as_ms())
        .collect();
    println!("\nACS synthesizer end times: {ends:.1?} (paper's hand schedule: [10, 15, 20])");
    let es = replay("Synthesized ACS, ACEC run", &set, &cpu, &synth, &acec)?;
    println!(
        "=> synthesized improvement over Fig. 1(b): {:.1}%",
        100.0 * improvement_over(e1, es)
    );
    assert!(verify_worst_case(&synth, &set, &cpu, 1e-5).is_ok());
    Ok(())
}
