//! # acs-core
//!
//! Offline voltage-schedule synthesis — the contribution of *"Exploiting
//! Dynamic Workload Variation in Low Energy Preemptive Task Scheduling"*
//! (Leung, Tsui, Hu — DATE 2005).
//!
//! Three synthesizers share one NLP machine:
//!
//! * [`synthesize_acs`] — **ACS**: chooses per-sub-instance end times and
//!   worst-case workload shares that minimize the energy of the greedy
//!   runtime under *average-case* (ACEC) workloads while guaranteeing
//!   worst-case (WCEC) feasibility. This is the paper's proposal (§3).
//! * [`synthesize_wcs`] — **WCS**: the classic baseline minimizing energy
//!   under worst-case workloads only (§4's comparison point).
//! * [`reopt::synthesize_remaining_best_with_carry`] — the **online** ACS
//!   step: at a job boundary, rebuild the *remaining-instance*
//!   formulation (executed cycles subtracted, the boundary time as the
//!   new origin, windows unchanged) and re-synthesize the end times
//!   against the workload observed so far. This powers the `ReOpt`
//!   policy in `acs-sim`.
//!
//! The resulting [`StaticSchedule`] carries, per sub-instance of the
//! fully preemptive expansion, the scheduled end time `e_u` and
//! worst-case workload share `R̂_u` — exactly what the online DVS phase
//! consumes (see `acs-sim`).
//!
//! ## Example
//!
//! ```
//! use acs_core::{synthesize_acs, synthesize_wcs, SynthesisOptions};
//! use acs_model::{Task, TaskSet, units::{Cycles, Ticks, Volt}};
//! use acs_power::{FreqModel, Processor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TaskSet::new(vec![
//!     Task::builder("ctrl", Ticks::new(10))
//!         .wcec(Cycles::from_cycles(200.0))
//!         .acec(Cycles::from_cycles(80.0))
//!         .bcec(Cycles::from_cycles(20.0))
//!         .build()?,
//!     Task::builder("ui", Ticks::new(20))
//!         .wcec(Cycles::from_cycles(300.0))
//!         .acec(Cycles::from_cycles(120.0))
//!         .bcec(Cycles::from_cycles(30.0))
//!         .build()?,
//! ])?;
//! let cpu = Processor::builder(FreqModel::linear(20.0)?)
//!     .vmin(Volt::from_volts(0.5))
//!     .vmax(Volt::from_volts(4.0))
//!     .build()?;
//!
//! let opts = SynthesisOptions::quick();
//! let acs = synthesize_acs(&set, &cpu, &opts)?;
//! let wcs = synthesize_wcs(&set, &cpu, &opts)?;
//! // ACS never predicts more average energy than WCS.
//! assert!(acs.diagnostics().predicted_avg_energy
//!     <= wcs.diagnostics().predicted_avg_energy);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
pub mod error;
pub mod export;
pub mod fill;
pub mod formulation;
pub mod quantile;
pub mod reopt;
pub mod schedule;
pub mod synthesis;
pub mod trace;
pub mod verify;

pub use error::CoreError;
pub use export::{from_text, to_text};
pub use formulation::{ObjectiveKind, ScheduleProblem};
pub use reopt::{
    synthesize_remaining_carry, InstanceProgress, RemainingInstance, ReoptOptions, ReoptOutcome,
    WarmCarry,
};
pub use schedule::{Milestone, ScheduleKind, SolveDiagnostics, StaticSchedule};
pub use synthesis::{
    synthesize_acs, synthesize_acs_best, synthesize_acs_warm, synthesize_wcs, synthesize_wcs_warm,
    warm_start_wins, SynthesisOptions,
};
pub use trace::{evaluate_trace, SpeedBasis, TraceOutcome};
pub use verify::{verify_worst_case, Violation, ViolationKind, WorstCaseReport};
