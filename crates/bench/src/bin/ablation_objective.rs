//! **Ablation A1** — how the objective flavor affects runtime energy.
//!
//! The paper's formulation admits several readings of "average energy":
//! the exact greedy-trace model at ACEC (our default), the idealized
//! average-speed model (a literal reading of eq. (4)), and the
//! probability-weighted quantile objective (§3.2's remark). This binary
//! runs the grid of `scenarios/ablation_objective.txt` once per flavor,
//! overriding only the synthesis objective, and measures actual runtime
//! energy under identical workloads. `acsched run
//! scenarios/ablation_objective.txt` runs the default flavor.
//!
//! ```sh
//! cargo run --release -p acs-bench --bin ablation_objective
//! ```

use acs_bench::row_names;
use acs_core::{ObjectiveKind, SynthesisOptions};
use acs_scenario::SynthProfile;
use acs_sim::Summary;

fn main() {
    let scenario = acs_bench::load("ablation_objective");
    let base = scenario.synthesis.unwrap_or(SynthProfile::Quick).options();
    let variants = [
        ("AcecTrace (default)", ObjectiveKind::AcecTrace),
        ("PaperIdealSpeed", ObjectiveKind::PaperIdealSpeed),
        ("Quantiles(5)", ObjectiveKind::Quantiles(5)),
    ];
    println!(
        "Ablation A1: ACS objective flavor — % runtime improvement over WCS \
         (6-task sets, ratio 0.1; {} sets x {} hyper-periods)\n",
        row_names(&scenario).len(),
        scenario.hyper_periods.unwrap_or(1)
    );
    println!(
        "{:<24} {:>10} {:>8} {:>8} {:>8}",
        "objective", "mean", "std", "min", "max"
    );
    for (name, objective) in variants {
        let synthesis = SynthesisOptions {
            objective,
            ..base.clone()
        };
        let report = acs_bench::run(
            scenario
                .campaign_builder()
                .expect("scenario materializes")
                .synthesis(synthesis),
        );
        assert_eq!(
            report.total_deadline_misses(),
            0,
            "hard deadlines must hold"
        );
        let mut gain = Summary::new();
        for (_, g) in report.gains() {
            gain.push(100.0 * g);
        }
        println!(
            "{:<24} {:>9.1}% {:>8.1} {:>7.1}% {:>7.1}%",
            name,
            gain.mean(),
            gain.std_dev(),
            gain.min(),
            gain.max()
        );
    }
    println!(
        "\nExpected: AcecTrace and Quantiles within noise of each other \
         (the paper notes ACEC is a good approximation); PaperIdealSpeed \
         slightly worse because it underestimates dispatch speeds."
    );
}
