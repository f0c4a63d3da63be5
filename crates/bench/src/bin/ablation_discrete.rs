//! **Ablation A3** — discrete voltage levels and transition overhead.
//!
//! The paper assumes a continuous supply and free transitions (§3.2).
//! This ablation measures the ACS-over-WCS improvement under level
//! quantization (runtime rounds up, keeping deadlines safe) and under
//! per-switch time/energy overheads. The grid is
//! `scenarios/ablation_discrete.txt`; this binary only renders its
//! table, and the same file runs through `acsched run
//! scenarios/ablation_discrete.txt`.
//!
//! The overhead rows miss deadlines: synthesis and the worst-case gate
//! never consult transition time (see the scenario's comment), so the
//! misses are printed as measured, not asserted away.
//!
//! ```sh
//! cargo run --release -p acs-bench --bin ablation_discrete
//! ```

use acs_bench::{gains_by, row_names};

fn main() {
    let scenario = acs_bench::load("ablation_discrete");
    println!(
        "Ablation A3: ACS-over-WCS % improvement under processor variations \
         (6-task sets, ratio 0.1; {} sets x {} hyper-periods)\n",
        row_names(&scenario).len(),
        scenario.hyper_periods.unwrap_or(1)
    );
    let report = acs_bench::run(scenario.campaign_builder().expect("scenario materializes"));
    println!(
        "{:<26} {:>10} {:>8} {:>8}",
        "processor", "mean", "std", "misses"
    );
    for row in gains_by(&report, |cell| &cell.processor) {
        println!(
            "{:<26} {:>9.1}% {:>8.1} {:>8}",
            row.key,
            row.gain.mean(),
            row.gain.std_dev(),
            row.misses
        );
    }
    println!(
        "\nExpected: improvements shrink with coarser levels, but the ACS \
         advantage persists. The overhead rows do not support the paper's \
         'transition overhead is negligible' assumption (§3): synthesis \
         and the worst-case gate ignore switch time, so those processors \
         miss deadlines even at WCEC draws — a known hole in the gate."
    );
}
