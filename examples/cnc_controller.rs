//! The CNC machine-controller case study (paper Fig. 6(b), left series).
//!
//! Synthesizes ACS and WCS schedules for the 8-task CNC set, sweeps the
//! BCEC/WCEC ratio and reports the runtime-energy improvement, plus a
//! Gantt chart of one average-case hyper-period.
//!
//! ```sh
//! cargo run --release --example cnc_controller
//! ```

use acsched::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cpu = Processor::builder(FreqModel::linear(50.0)?)
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()?;
    let opts = SynthesisOptions::default();
    let sim_opts = SimOptions {
        hyper_periods: 100,
        deadline_tol_ms: 1e-3,
        ..Default::default()
    };

    println!("CNC controller (8 tasks, hyper-period 4.8 ms, time unit 100 µs)");
    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "BCEC/WCEC", "WCS energy", "ACS energy", "improvement"
    );
    for ratio in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let set = cnc(cpu.f_max(), ratio, 0.7)?;
        let wcs = synthesize_wcs(&set, &cpu, &opts)?;
        let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs)?;
        let mut energy = Vec::new();
        for schedule in [&wcs, &acs] {
            let mut draws = TaskWorkloads::paper(&set, 77);
            let out = Simulator::new(&set, &cpu, GreedyReclaim)
                .with_schedule(schedule)
                .with_options(sim_opts.clone())
                .run(&mut draws)?;
            assert_eq!(out.report.deadline_misses, 0);
            energy.push(out.report.energy);
        }
        println!(
            "{:>12.1} {:>14.0} {:>14.0} {:>11.1}%",
            ratio,
            energy[0].as_units(),
            energy[1].as_units(),
            100.0 * improvement_over(energy[0], energy[1])
        );
    }

    // Show one average-case hyper-period under the ACS schedule.
    let set = cnc(cpu.f_max(), 0.1, 0.7)?;
    let acs = synthesize_acs(&set, &cpu, &opts)?;
    let mut draws = TaskWorkloads::paper(&set, 5);
    let out = Simulator::new(&set, &cpu, GreedyReclaim)
        .with_schedule(&acs)
        .with_options(SimOptions {
            record_trace: true,
            deadline_tol_ms: 1e-3,
            ..Default::default()
        })
        .run(&mut draws)?;
    println!("\nOne sampled hyper-period under ACS (ratio 0.1):");
    if let Some(trace) = out.trace {
        print!(
            "{}",
            render_gantt(&trace, &set, set.hyper_period().get() as f64, 72)
        );
    }
    Ok(())
}
