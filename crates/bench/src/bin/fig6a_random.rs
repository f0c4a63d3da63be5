//! **Figure 6(a)** — energy improvement of ACS over WCS on random task
//! sets, as a function of task count and workload flexibility.
//!
//! Paper protocol (§4): for each task count `N ∈ {2,4,6,8,10}` and
//! `BCEC/WCEC ∈ {0.1, 0.5, 0.9}`, generate random task sets (periods
//! 10–30 ms, 70% worst-case utilization at `f_max`, ≤ 1000
//! sub-instances), simulate truncated-normal workloads under greedy
//! DVS, and report the percentage runtime-energy improvement of the ACS
//! schedule over the WCS schedule.
//!
//! Since the scenario redesign the whole experiment is **data**: this
//! binary loads `scenarios/fig6a_random.txt` (the grid) and
//! `scenarios/fig6a_threeway.txt` (the reduced WCS / greedy / ReOpt
//! comparison) and only renders the pivot tables — the same files run
//! unchanged through `acsched run scenarios/fig6a_random.txt`. Scale
//! lives in the files; edit `count=` / `hyper_periods` there.
//!
//! ```sh
//! cargo run --release -p acs-bench --bin fig6a_random
//! ```

use acs_runtime::{CampaignReport, ScheduleChoice};
use acs_scenario::{Scenario, TaskSetDecl};
use acs_sim::Summary;

/// The `(tasks, ratio, row names)` cells declared by a fig6a-style
/// scenario, in declaration order.
fn random_cells(scenario: &Scenario) -> Vec<(usize, f64, Vec<String>)> {
    scenario
        .task_sets
        .iter()
        .filter_map(|decl| match decl {
            TaskSetDecl::Random {
                tasks,
                ratio,
                count,
                ..
            } => Some((
                *tasks,
                *ratio,
                (0..*count)
                    .map(|idx| acs_workloads::paper_set_name(*tasks, *ratio, idx))
                    .collect(),
            )),
            _ => None,
        })
        .collect()
}

fn sorted_unique<T: PartialOrd + Copy>(values: impl Iterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite axis values"));
    out
}

fn load_and_run(name: &str) -> (Scenario, CampaignReport, usize) {
    let scenario = acs_bench::load(name);
    let report = acs_bench::run(scenario.campaign_builder().expect("scenario materializes"));
    // Declared random rows that produced no cells at all were skipped by
    // the generator (sub-instance cap) — the paper protocol's per-set
    // generation failures. Rows with cells that carry errors are counted
    // separately as synthesis failures by the caller.
    let present: std::collections::BTreeSet<&str> =
        report.cells().iter().map(|c| c.task_set.as_str()).collect();
    let gen_failures = random_cells(&scenario)
        .iter()
        .flat_map(|(_, _, names)| names)
        .filter(|name| !present.contains(name.as_str()))
        .count();
    (scenario, report, gen_failures)
}

fn main() {
    let (scenario, report, gen_failures) = load_and_run("fig6a_random");
    let cells = random_cells(&scenario);
    let counts = sorted_unique(cells.iter().map(|(n, _, _)| *n));
    let ratios = sorted_unique(cells.iter().map(|(_, r, _)| *r));
    let sets_per_cell = cells.first().map_or(0, |(_, _, names)| names.len());
    let hp = scenario.hyper_periods.unwrap_or(1);

    println!(
        "Figure 6(a): % runtime-energy improvement of ACS over WCS \
         ({sets_per_cell} sets x {hp} hyper-periods per cell; paper: 100 x 1000)\n"
    );
    print!("{:>8}", "#tasks");
    for ratio in &ratios {
        print!(" {:>16}", format!("BCEC/WCEC={ratio}"));
    }
    println!();
    for &n in &counts {
        print!("{n:>8}");
        for &ratio in &ratios {
            let mut summary = Summary::new();
            for (_, _, names) in cells.iter().filter(|(c, r, _)| *c == n && *r == ratio) {
                for name in names {
                    if let Some(g) = report.gain(name, "linear", "greedy", "paper-normal") {
                        summary.push(100.0 * g);
                    }
                }
            }
            print!(
                " {:>16}",
                format!("{:>6.1}% ±{:>4.1}", summary.mean(), summary.std_dev())
            );
        }
        println!();
    }
    // One synthesis failure poisons both a set's WCS and ACS cells;
    // count failed *sets* (matching the paper protocol's per-set
    // accounting), not failed cells.
    let failed_sets: std::collections::BTreeSet<&str> = report
        .failures()
        .map(|(cell, _)| cell.task_set.as_str())
        .collect();
    assert_eq!(
        report.total_deadline_misses(),
        0,
        "hard deadlines must hold"
    );
    println!(
        "\nPaper's reported shape: improvement grows with task count; \
         ≈60% at (10 tasks, ratio 0.1); ≈0 at ratio 0.9. Failures: {}.",
        gen_failures + failed_sets.len()
    );

    // ---- three-way comparison: WCS·greedy vs ACS·greedy vs ACS·reopt ----
    // Boundary re-solves cost ~10³ greedy dispatches, so the online
    // re-optimizer's scenario declares a 2-set subset of the same cells
    // at fewer hyper-periods — paired draws, quick-profile synthesis
    // (the comparison is relative).
    let (scenario3, report3, _) = load_and_run("fig6a_threeway");
    let cells3 = random_cells(&scenario3);
    let sub_sets = cells3.first().map_or(0, |(_, _, names)| names.len());
    let sub_hp = scenario3.hyper_periods.unwrap_or(1);

    println!(
        "\nThree-way (subset: {sub_sets} sets x {sub_hp} hyper-periods per cell): \
         % energy saved vs WCS+greedy"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "#tasks", "ACS+greedy", "ACS+reopt", "WCS+reopt"
    );
    for &n in &counts {
        let mut acs_greedy = Summary::new();
        let mut acs_reopt = Summary::new();
        let mut wcs_reopt = Summary::new();
        for (_, _, names) in cells3.iter().filter(|(c, _, _)| *c == n) {
            for name in names {
                let energy = |sched, policy: &str| {
                    report3
                        .find(name, "linear", sched, policy, "paper-normal")
                        .and_then(|c| c.stats())
                        .map(|s| s.mean_energy.as_units())
                };
                let Some(base) = energy(ScheduleChoice::Wcs, "greedy") else {
                    continue;
                };
                if let Some(e) = energy(ScheduleChoice::Acs, "greedy") {
                    acs_greedy.push(100.0 * (1.0 - e / base));
                }
                if let Some(e) = energy(ScheduleChoice::Acs, "reopt") {
                    acs_reopt.push(100.0 * (1.0 - e / base));
                }
                if let Some(e) = energy(ScheduleChoice::Wcs, "reopt") {
                    wcs_reopt.push(100.0 * (1.0 - e / base));
                }
            }
        }
        println!(
            "{:>8} {:>13.1}% {:>13.1}% {:>13.1}%",
            n,
            acs_greedy.mean(),
            acs_reopt.mean(),
            wcs_reopt.mean()
        );
    }
    if let Some(rate) = report3.solver_cache_hit_rate() {
        println!(
            "solver cache hit rate: {:.1}% over the shared campaign cache",
            100.0 * rate
        );
    }
    // Over *every* successful cell — a missing greedy baseline must not
    // exempt a reopt cell from the hard-deadline guard.
    assert_eq!(
        report3.total_deadline_misses(),
        0,
        "hard deadlines must hold for ReOpt too"
    );
    println!(
        "\nReOpt re-solves the remaining schedule at every job boundary: \
         on the WCS schedule it recovers most of the offline ACS gain \
         online; on the ACS schedule it adds the workload actually \
         observed on top of the offline expectation."
    );
}
