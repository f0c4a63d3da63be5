//! Quickstart: describe a system, synthesize ACS and WCS schedules, run
//! the greedy online DVS phase, and compare runtime energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use acsched::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small mixed-criticality-ish system: a fast control loop whose
    // workload varies wildly, plus two slower housekeeping tasks.
    let set = TaskSet::new(vec![
        Task::builder("control", Ticks::new(10))
            .wcec(Cycles::from_cycles(400.0))
            .acec(Cycles::from_cycles(150.0))
            .bcec(Cycles::from_cycles(40.0))
            .build()?,
        Task::builder("telemetry", Ticks::new(20))
            .wcec(Cycles::from_cycles(600.0))
            .acec(Cycles::from_cycles(200.0))
            .bcec(Cycles::from_cycles(60.0))
            .build()?,
        Task::builder("logging", Ticks::new(20))
            .wcec(Cycles::from_cycles(300.0))
            .acec(Cycles::from_cycles(120.0))
            .bcec(Cycles::from_cycles(30.0))
            .build()?,
    ])?;
    let cpu = Processor::builder(FreqModel::linear(50.0)?)
        .vmin(Volt::from_volts(0.5))
        .vmax(Volt::from_volts(4.0))
        .build()?;
    println!(
        "task set: {} tasks, hyper-period {}, worst-case utilization {:.1}%",
        set.len(),
        set.hyper_period(),
        100.0 * set.utilization_at(cpu.f_max())
    );

    // Offline phase: the paper's ACS and the classic WCS baseline.
    let opts = SynthesisOptions::default();
    let acs = synthesize_acs(&set, &cpu, &opts)?;
    let wcs = synthesize_wcs(&set, &cpu, &opts)?;
    println!(
        "\nACS static schedule (per sub-instance):\n{}",
        acs.to_table()
    );

    // Online phase: greedy slack reclamation over 200 hyper-periods of
    // truncated-normal workloads (identical draws for both schedules).
    let sim_opts = SimOptions {
        hyper_periods: 200,
        ..Default::default()
    };
    let mut energies = Vec::new();
    for schedule in [&wcs, &acs] {
        let mut draws = TaskWorkloads::paper(&set, 2024);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(schedule)
            .with_options(sim_opts.clone())
            .run(&mut draws)?;
        assert!(out.report.all_deadlines_met(), "hard deadlines are hard");
        println!(
            "{} runtime: {:.0} energy units over {} hyper-periods ({} jobs, 0 misses)",
            schedule.kind(),
            out.report.energy.as_units(),
            out.report.hyper_periods,
            out.report.jobs_completed
        );
        energies.push(out.report.energy);
    }
    println!(
        "\nACS saves {:.1}% runtime energy over WCS on this system.",
        100.0 * improvement_over(energies[0], energies[1])
    );
    Ok(())
}
