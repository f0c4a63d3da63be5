//! # acs-bench
//!
//! Table renderers for the paper's figures and ablations, one binary per
//! artifact (see `src/bin/`). Every experiment is a checked-in scenario,
//! `scenarios/<name>.txt`: a binary loads its file with [`load`], runs
//! it as one [`Campaign`](acs_runtime::Campaign) with [`run`] and prints
//! the table. The same files run through `acsched run
//! scenarios/<name>.txt`, and `tests/golden.rs` pins their CSVs. Scale
//! lives in the files: edit `count=` / `hyper_periods` there. The two
//! worked-example binaries (`fig1_motivation`, `fig34_expansion`) print
//! the paper's hand schedules and need no grid. Performance is measured
//! by the repository benchmark in `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use acs_runtime::{CampaignBuilder, CampaignReport, CellReport};
use acs_scenario::{Scenario, TaskSetDecl};
use acs_sim::Summary;

/// Loads the checked-in scenario `scenarios/<name>.txt`.
///
/// # Panics
///
/// When the file is missing or does not parse.
pub fn load(name: &str) -> Scenario {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.txt"));
    Scenario::load(&path).unwrap_or_else(|e| panic!("loading {}: {e}", path.display()))
}

/// Builds and runs one scenario's campaign, noting its size and every
/// failed cell on stderr.
///
/// # Panics
///
/// When the grid does not build (an empty axis).
pub fn run(builder: CampaignBuilder) -> CampaignReport {
    let campaign = builder.build().expect("non-empty experiment grid");
    eprintln!(
        "running {} cells / {} simulations...",
        campaign.cell_count(),
        campaign.run_count()
    );
    let report = campaign.run();
    for (cell, err) in report.failures() {
        eprintln!(
            "  [{} {} {} {}] {err}",
            cell.task_set, cell.processor, cell.schedule, cell.policy
        );
    }
    report
}

/// The grid-row names a scenario declares, in declaration order. A
/// declared random set that the generator skipped (the sub-instance
/// cap) has no cells in the report and so contributes no samples.
pub fn row_names(scenario: &Scenario) -> Vec<String> {
    scenario
        .task_sets
        .iter()
        .flat_map(|decl| match decl {
            TaskSetDecl::Inline { name, .. }
            | TaskSetDecl::RealLife { name, .. }
            | TaskSetDecl::Trace { name, .. } => vec![name.clone()],
            TaskSetDecl::Random {
                tasks,
                ratio,
                count,
                ..
            } => (0..*count)
                .map(|idx| acs_workloads::paper_set_name(*tasks, *ratio, idx))
                .collect(),
        })
        .collect()
}

/// The ACS-over-WCS gains of one group of cells.
#[derive(Debug, Clone)]
pub struct GainRow {
    /// The grouping coordinate's value (a processor or workload name).
    pub key: String,
    /// ACS-over-WCS gain in percent, one sample per task set.
    pub gain: Summary,
    /// Deadline misses over every cell of the group, both schedules.
    pub misses: usize,
}

/// Groups the report's ACS-over-WCS gains (see
/// [`CampaignReport::gains`]) by one cell coordinate, in the order the
/// grid first meets each value.
pub fn gains_by(report: &CampaignReport, key: fn(&CellReport) -> &str) -> Vec<GainRow> {
    let mut rows: Vec<GainRow> = Vec::new();
    let row_of = |rows: &mut Vec<GainRow>, cell: &CellReport| {
        rows.iter()
            .position(|r| r.key == key(cell))
            .unwrap_or_else(|| {
                rows.push(GainRow {
                    key: key(cell).to_string(),
                    gain: Summary::new(),
                    misses: 0,
                });
                rows.len() - 1
            })
    };
    for cell in report.cells() {
        let i = row_of(&mut rows, cell);
        rows[i].misses += cell.stats().map_or(0, |s| s.deadline_misses);
    }
    for (cell, gain) in report.gains() {
        let i = row_of(&mut rows, cell);
        rows[i].gain.push(100.0 * gain);
    }
    rows
}
