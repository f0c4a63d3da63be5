//! # acs-preempt
//!
//! Fully preemptive schedule expansion for the `acsched` workspace
//! (paper §3.1, Figs. 3–4), the schedulability tests around it, and
//! the partitioning of a task set onto identical cores.
//!
//! In a fixed-priority preemptive system a task instance can only be
//! preempted when a higher-priority task releases. Expanding every
//! instance at *all* such release points produces the **fully preemptive
//! schedule**: a sequence of *sub-instances* `T_{i,j,k}`, one per
//! (instance × overlapping grid segment), together with their total
//! execution order. The NLP in `acs-core` assigns each sub-instance an
//! end-time and a worst-case workload share; the runtime in `acs-sim`
//! uses those as DVS milestones.
//!
//! The [`feasibility`] module holds the closed-form single-core tests
//! (RM response times, the EDF utilization and demand bounds), and
//! [`partition()`] bin-packs a set onto N identical cores by
//! worst-case utilization ([`PartitionHeuristic`]: first-fit, best-fit
//! or worst-fit decreasing) for the per-core machine runs in `acs-sim`.
//!
//! ## Example
//!
//! ```
//! use acs_model::{Task, TaskSet, units::{Cycles, Ticks}};
//! use acs_preempt::FullyPreemptiveSchedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::new(vec![
//!     Task::builder("ctrl", Ticks::new(3)).wcec(Cycles::from_cycles(10.0)).build()?,
//!     Task::builder("io",   Ticks::new(6)).wcec(Cycles::from_cycles(20.0)).build()?,
//! ])?;
//! let fps = FullyPreemptiveSchedule::expand(&ts)?;
//! assert_eq!(fps.len(), 4); // two T1 chunks, T2 split at t=3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod expansion;
pub mod feasibility;
pub mod grid;
pub mod partition;
pub mod subinstance;

pub use error::PreemptError;
pub use expansion::FullyPreemptiveSchedule;
pub use feasibility::{
    demand_bound_ms, edf_demand_feasible, edf_utilization_feasible, rm_feasible, rm_response_times,
};
pub use grid::ReleaseGrid;
pub use partition::{partition, CoreAssignment, Partition, PartitionHeuristic};
pub use subinstance::{InstanceId, SubInstance, SubInstanceId};
