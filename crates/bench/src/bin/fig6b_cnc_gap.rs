//! **Figure 6(b)** — energy improvement of ACS over WCS on the two
//! real-life applications, CNC and GAP, across the BCEC/WCEC sweep.
//!
//! The grid is `scenarios/fig6b_cnc_gap.txt` (10 application instances
//! × {WCS, ACS} × greedy); this binary only renders its table, and the
//! same file runs unchanged through `acsched run
//! scenarios/fig6b_cnc_gap.txt`. Edit `hyper_periods` there to change
//! scale.
//!
//! ```sh
//! cargo run --release -p acs-bench --bin fig6b_cnc_gap
//! ```

use acs_scenario::TaskSetDecl;
use std::collections::HashMap;

fn main() {
    let scenario = acs_bench::load("fig6b_cnc_gap");
    println!(
        "Figure 6(b): % runtime-energy improvement of ACS over WCS \
         ({} hyper-periods per cell)\n",
        scenario.hyper_periods.unwrap_or(1)
    );
    let report = acs_bench::run(scenario.campaign_builder().expect("scenario materializes"));
    let gains: HashMap<&str, f64> = report
        .gains()
        .into_iter()
        .map(|(cell, gain)| (cell.task_set.as_str(), gain))
        .collect();
    // (ratio, application, grid row) per declared instance.
    let rows: Vec<(f64, &str, &str)> = scenario
        .task_sets
        .iter()
        .filter_map(|decl| match decl {
            TaskSetDecl::RealLife {
                name, set, ratio, ..
            } => Some((
                ratio.expect("every fig6b row declares ratio="),
                set.as_str(),
                name.as_str(),
            )),
            _ => None,
        })
        .collect();
    let mut ratios: Vec<f64> = rows.iter().map(|(ratio, _, _)| *ratio).collect();
    ratios.sort_by(f64::total_cmp);
    ratios.dedup();

    println!("{:>10} {:>10} {:>10}", "BCEC/WCEC", "CNC", "GAP");
    for ratio in ratios {
        let col = |app: &str| {
            rows.iter()
                .find(|(r, a, _)| *r == ratio && *a == app)
                .and_then(|(_, _, name)| gains.get(name))
                .map_or(f64::NAN, |g| 100.0 * g)
        };
        println!("{ratio:>10.1} {:>9.1}% {:>9.1}%", col("cnc"), col("gap"));
    }
    assert_eq!(
        report.total_deadline_misses(),
        0,
        "hard deadlines must hold"
    );
    println!(
        "\nPaper's reported shape: ≈41% (CNC) and ≈30% (GAP) at ratio 0.1, \
         both decaying toward 0 at ratio 0.9."
    );
}
