//! # acs-multi
//!
//! Multiprocessor layer for the `acsched` workspace: partitioned and
//! global placements over N identical cores.
//!
//! The paper's machinery — offline synthesis, the event-driven engine,
//! the online [`Policy`](acs_sim::Policy) API — is single-processor.
//! This crate lifts it to N identical cores the *partitioned* way
//! (Nélis et al., power-aware scheduling on identical multiprocessors):
//!
//! 1. [`partition()`] assigns the task set to cores with a bin-packing
//!    heuristic over worst-case utilizations ([`PartitionHeuristic`]:
//!    first-fit / best-fit / worst-fit decreasing);
//! 2. each core runs the unchanged single-core engine and its own fresh
//!    policy instance ([`MachineRun`]);
//! 3. the per-core reports fold into the same
//!    [`RunOutput`](acs_sim::RunOutput) a global run returns, whose
//!    [`breakdown`](acs_sim::SimReport::breakdown) splits dynamic vs
//!    static vs idle energy (leakage modeling lives in `acs-power`).
//!
//! Partitioner choice matters for energy: worst-fit decreasing spreads
//! load thin, handing every core more slack for DVS to reclaim, while
//! best-fit packs cores full and leaves whole cores idle (cheap on
//! platforms that power-gate, expensive when `idle_power > 0`). The
//! `acs-runtime` campaign axes (`cores`, `partitioners`) sweep exactly
//! this trade-off.
//!
//! The alternative to pinning is *global* dispatch, selected by
//! [`Placement::Global`]: one shared ready queue, the `m` most eligible
//! jobs on `m` cores, jobs migrating between cores when the eligibility
//! order forces it. That is the event engine itself on `m` cores
//! (`acs_sim::Simulator::with_cores`), so this crate only names the
//! placement. Global placement is the only way to run
//! precedence-constrained sets ([`acs_model::TaskGraph`]) on multiple
//! cores — precedence edges cannot cross a partition, and
//! [`partition()`] rejects such sets up front.
//!
//! ## Example
//!
//! ```
//! use acs_model::{Task, TaskId, TaskSet, units::{Cycles, Ticks, Volt}};
//! use acs_multi::{partition, MachineRun, PartitionHeuristic};
//! use acs_power::{FreqModel, Processor};
//! use acs_sim::{NoDvs, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TaskSet::new(vec![
//!     Task::builder("a", Ticks::new(10)).wcec(Cycles::from_cycles(1000.0)).build()?,
//!     Task::builder("b", Ticks::new(20)).wcec(Cycles::from_cycles(900.0)).build()?,
//! ])?;
//! let cpu = Processor::builder(FreqModel::linear(50.0)?)
//!     .vmin(Volt::from_volts(0.5))
//!     .vmax(Volt::from_volts(4.0))
//!     .static_power(5.0)
//!     .build()?;
//!
//! let p = partition(&set, cpu.f_max(), 2, PartitionHeuristic::WorstFitDecreasing)?;
//! assert_eq!(p.busy_cores(), 2);
//!
//! let out = MachineRun {
//!     partition: &p,
//!     cpu: &cpu,
//!     schedules: None,
//!     options: SimOptions::default(),
//! }
//! .run(
//!     || Box::new(NoDvs),
//!     |_core, _set| |_task: TaskId, _abs: u64| Cycles::from_cycles(400.0),
//!     &mut |_core, _set| None,
//! )?;
//! assert_eq!(out.cores.len(), 2);
//! assert!(out.report.all_deadlines_met());
//! let split = out.report.breakdown();
//! assert!(split.static_ > acs_model::units::Energy::ZERO);
//! assert_eq!(split.total(), out.report.energy);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod global;
pub mod machine;
pub mod partition;

pub use error::MultiError;
pub use global::Placement;
pub use machine::{CoreSourceFactory, MachineRun};
pub use partition::{partition, CoreAssignment, Partition, PartitionHeuristic};
