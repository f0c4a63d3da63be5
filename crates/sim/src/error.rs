//! Error type for the runtime simulator.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while configuring or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The chosen policy needs a static schedule but none was supplied.
    ScheduleRequired {
        /// Name of the policy.
        policy: String,
    },
    /// The supplied schedule was synthesized for a different task set
    /// (task count or hyper-period mismatch).
    ScheduleMismatch {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// A drawn workload was non-finite or negative.
    InvalidWorkload {
        /// Task index.
        task: usize,
        /// Instance index within the run.
        instance: u64,
        /// The offending value in cycles.
        cycles: f64,
    },
    /// The processor cannot make progress (frequency at the dispatched
    /// voltage is zero — e.g. an alpha-law processor with `vmin ≤ Vth`).
    StalledProcessor,
    /// The attached arrival source failed to produce a window (malformed
    /// trace record, out-of-order window request, I/O error).
    ArrivalSource {
        /// The source's own error message (line-numbered for traces).
        message: String,
    },
    /// The task set carries a precedence graph but the run was
    /// configured with a non-periodic arrival source. Precedence ties
    /// instance `k` of a successor to instance `k` of its predecessor,
    /// which only exists on the built-in periodic release pattern.
    GraphWithArrivals,
    /// The core count is zero, or a multi-core run was configured with
    /// something global dispatch cannot honor (a static schedule, a
    /// policy that needs one, an arrival source).
    Cores {
        /// The configured core count.
        cores: usize,
        /// Why the run cannot start on that many cores.
        reason: String,
    },
    /// The number of schedules handed to a machine run does not match
    /// the number of non-empty cores.
    ScheduleCount {
        /// Schedules provided.
        got: usize,
        /// Non-empty cores in the partition.
        expected: usize,
    },
    /// One core of a partitioned machine run failed.
    Core {
        /// The failing core's index.
        core: usize,
        /// That core's own simulation error.
        error: Box<SimError>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScheduleRequired { policy } => {
                write!(f, "policy {policy} requires a static schedule")
            }
            SimError::ScheduleMismatch { reason } => {
                write!(f, "schedule does not match the task set: {reason}")
            }
            SimError::InvalidWorkload {
                task,
                instance,
                cycles,
            } => write!(
                f,
                "invalid workload {cycles} cycles drawn for task {task} instance {instance}"
            ),
            SimError::StalledProcessor => {
                write!(f, "processor frequency is zero at the dispatched voltage")
            }
            SimError::ArrivalSource { message } => {
                write!(f, "arrival source failed: {message}")
            }
            SimError::GraphWithArrivals => write!(
                f,
                "precedence-constrained task sets require the built-in periodic \
                 release pattern (no arrival source)"
            ),
            SimError::Cores { cores, reason } => {
                write!(f, "cannot run on {cores} cores: {reason}")
            }
            SimError::ScheduleCount { got, expected } => write!(
                f,
                "machine run got {got} schedules for {expected} non-empty cores"
            ),
            SimError::Core { core, error } => {
                write!(f, "per-core simulation: core {core}: {error}")
            }
        }
    }
}

impl StdError for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::ScheduleRequired {
            policy: "greedy".into()
        }
        .to_string()
        .contains("greedy"));
        assert!(SimError::StalledProcessor.to_string().contains("zero"));
        let core = SimError::Core {
            core: 2,
            error: Box::new(SimError::StalledProcessor),
        };
        assert_eq!(
            core.to_string(),
            "per-core simulation: core 2: processor frequency is zero at the dispatched voltage"
        );
    }
}
