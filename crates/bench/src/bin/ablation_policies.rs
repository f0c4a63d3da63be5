//! **Ablation A2** — online-policy sweep on both static schedules.
//!
//! Crosses {WCS, ACS} offline schedules with the five online policies to
//! separate the value of (a) static voltage scheduling, (b) greedy slack
//! reclamation, (c) the average-case-aware end times, and (d) online
//! re-optimization of the remaining schedule (`reopt`), against a
//! purely online cycle-conserving baseline.
//!
//! The sweep is **data**: `scenarios/ablation_policies.txt` declares the
//! whole grid (task sets, policies, seeds, scale) and this binary only
//! renders the normalized table — the same file runs unchanged through
//! `acsched run scenarios/ablation_policies.txt`. Boundary re-solves are
//! ~10³× a greedy dispatch, so the checked-in file declares a reduced
//! scale; edit `count=` / `hyper_periods` there for bigger runs.
//!
//! ```sh
//! cargo run --release -p acs-bench --bin ablation_policies
//! ```

use acs_bench::row_names;
use acs_runtime::ScheduleChoice;
use acs_sim::Summary;

fn main() {
    let scenario = acs_bench::load("ablation_policies");
    let set_names = row_names(&scenario);
    println!(
        "Ablation A2: runtime energy by (schedule x policy), normalized to \
         no-DVS = 100 (6-task sets, ratio 0.1; {} sets x {} hyper-periods)\n",
        set_names.len(),
        scenario.hyper_periods.unwrap_or(1)
    );
    let report = acs_bench::run(scenario.campaign_builder().expect("scenario materializes"));

    let rows: [(&str, ScheduleChoice, &str); 8] = [
        (
            "no-DVS (fmax + shutdown)",
            ScheduleChoice::Unscheduled,
            "no-dvs",
        ),
        ("ccRM (online only)", ScheduleChoice::Unscheduled, "ccrm"),
        ("WCS + static speeds", ScheduleChoice::Wcs, "static"),
        ("WCS + greedy reclaim", ScheduleChoice::Wcs, "greedy"),
        ("ACS + static speeds", ScheduleChoice::Acs, "static"),
        ("ACS + greedy reclaim", ScheduleChoice::Acs, "greedy"),
        ("WCS + online reopt", ScheduleChoice::Wcs, "reopt"),
        ("ACS + online reopt", ScheduleChoice::Acs, "reopt"),
    ];
    let mut summaries = vec![Summary::new(); rows.len()];
    let mut misses = vec![0usize; rows.len()];
    for name in &set_names {
        let Some(base) = report
            .find(
                name,
                "linear",
                ScheduleChoice::Unscheduled,
                "no-dvs",
                "paper-normal",
            )
            .and_then(|c| c.stats())
            .map(|s| s.mean_energy.as_units())
        else {
            continue;
        };
        for (i, (_, schedule, policy)) in rows.iter().enumerate() {
            if let Some(stats) = report
                .find(name, "linear", *schedule, policy, "paper-normal")
                .and_then(|c| c.stats())
            {
                summaries[i].push(100.0 * stats.mean_energy.as_units() / base);
                misses[i] += stats.deadline_misses;
            }
        }
    }

    println!(
        "{:<28} {:>10} {:>8} {:>8}",
        "configuration", "energy", "std", "misses"
    );
    for (i, (label, _, _)) in rows.iter().enumerate() {
        println!(
            "{:<28} {:>10.1} {:>8.1} {:>8}",
            label,
            summaries[i].mean(),
            summaries[i].std_dev(),
            misses[i]
        );
    }
    if let Some(rate) = report.solver_cache_hit_rate() {
        println!("solver cache hit rate: {:.1}%", 100.0 * rate);
    }
    println!(
        "\nExpected ordering: no-DVS > static-only > greedy ≥ reopt; \
         ACS+greedy below WCS+greedy (the paper's claim), and reopt \
         closes most of the WCS-vs-ACS gap online. ccRM has no \
         worst-case schedule and may miss deadlines at 70% utilization."
    );
}
