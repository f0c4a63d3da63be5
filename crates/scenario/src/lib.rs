//! # acs-scenario
//!
//! Declarative experiment scenarios for the `acsched` workspace:
//! a whole [`Campaign`](acs_runtime::Campaign) — task sets, processors,
//! cores and partitioners, scheduling classes, arrival processes,
//! placements, precedence graphs, schedules, policies, workload
//! distributions, seeds, hyper-periods, threads — described as a
//! line-oriented **text file** instead of Rust code. The file starts
//! with one of the headers `acsched-scenario v1` through `v5`; every
//! directive parses under any of them, and [`Scenario::to_text`]
//! writes the oldest one that covers the declarations.
//!
//! Same philosophy as the `acsched-schedule v1` artifact in
//! `acs-core::export`: diff-able, greppable, hand-editable, no serde
//! (the build environment vendors no crate registry). The paper's whole
//! evaluation grid (§5) becomes data under `scenarios/`, runnable with
//! `acsched run <file>`, and any new experiment is a text edit away —
//! exactly the broad, easily-varied experiment grids that run-time DVS
//! claims need (cf. Berten et al., Simon et al.).
//!
//! The full grammar lives in `docs/SCENARIO_FORMAT.md`. A taste:
//!
//! ```
//! use acs_scenario::Scenario;
//!
//! # fn main() -> Result<(), acs_scenario::ScenarioError> {
//! let text = "\
//! acsched-scenario v1
//! taskset pair
//! task ctrl period=10 wcec=300 acec=120 bcec=30
//! task telemetry period=20 wcec=600 acec=200 bcec=60
//! end
//! processor linear50 linear kappa=50 vmin=0.3 vmax=4
//! schedules wcs acs
//! policy greedy
//! workload paper
//! seeds 1 2
//! hyper_periods 4
//! ";
//! let scenario = Scenario::from_text(text)?;
//! let campaign = scenario.to_campaign()?;
//! assert_eq!(campaign.cell_count(), 2); // {WCS, ACS} x greedy
//! assert_eq!(campaign.run_count(), 4); // x 2 seeds
//! // Canonical serialization is a parse fixpoint.
//! assert_eq!(scenario, Scenario::from_text(&scenario.to_text()?)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
mod parse;
pub mod scenario;

pub use error::ScenarioError;
pub use scenario::{
    DagDecl, ModelDecl, PolicyDecl, ProcessorDecl, Scenario, StaticPowerDecl, SynthProfile,
    TaskDecl, TaskSetDecl,
};
