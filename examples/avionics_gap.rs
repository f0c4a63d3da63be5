//! The Generic Avionics Platform case study (paper Fig. 6(b), right
//! series) with a policy shoot-out.
//!
//! Synthesizes ACS/WCS for the 17-task GAP set and compares all four
//! online policies: no-DVS, static speeds only, the paper's greedy
//! reclamation, and a cycle-conserving online-only baseline.
//!
//! ```sh
//! cargo run --release --example avionics_gap
//! ```

use acsched::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cpu = Processor::builder(FreqModel::linear(50.0)?)
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()?;
    let ratio = 0.1;
    let set = gap(cpu.f_max(), ratio, 0.7)?;
    println!(
        "GAP (17 tasks, hyper-period {} ms, {} sub-instances), BCEC/WCEC = {ratio}",
        set.hyper_period().get(),
        FullyPreemptiveSchedule::expand(&set)?.len()
    );

    let opts = SynthesisOptions::default();
    let wcs = synthesize_wcs(&set, &cpu, &opts)?;
    let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs)?;
    let sim_opts = SimOptions {
        hyper_periods: 50,
        deadline_tol_ms: 1e-3,
        ..Default::default()
    };

    println!(
        "\n{:<28} {:>14} {:>8} {:>8}",
        "configuration", "energy", "misses", "vs no-DVS"
    );
    let mut base = None;
    let runs: Vec<(&str, Box<dyn Policy>, Option<&StaticSchedule>)> = vec![
        ("no-DVS", Box::new(NoDvs), None),
        ("ccRM (online only)", Box::new(CcRm::new()), None),
        ("WCS + static speeds", Box::new(StaticSpeed), Some(&wcs)),
        ("WCS + greedy reclaim", Box::new(GreedyReclaim), Some(&wcs)),
        ("ACS + static speeds", Box::new(StaticSpeed), Some(&acs)),
        ("ACS + greedy reclaim", Box::new(GreedyReclaim), Some(&acs)),
    ];
    for (name, policy, schedule) in runs {
        let mut draws = TaskWorkloads::paper(&set, 31);
        let mut sim = Simulator::new(&set, &cpu, policy).with_options(sim_opts.clone());
        if let Some(s) = schedule {
            sim = sim.with_schedule(s);
        }
        let out = sim.run(&mut draws)?;
        let e = out.report.energy;
        let base_e = *base.get_or_insert(e);
        println!(
            "{:<28} {:>14.0} {:>8} {:>7.1}%",
            name,
            e.as_units(),
            out.report.deadline_misses,
            100.0 * improvement_over(base_e, e)
        );
    }
    println!("\n(The paper's Fig. 6(b) reports ACS-vs-WCS improvements; see `acsched run scenarios/fig6b_cnc_gap.txt` for that sweep.)");
    Ok(())
}
