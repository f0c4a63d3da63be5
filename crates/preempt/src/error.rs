//! Error type for the fully preemptive expansion and partitioning.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while expanding a task set into its fully preemptive
/// schedule or partitioning it onto cores.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PreemptError {
    /// The expansion exceeded the caller-supplied sub-instance limit.
    ///
    /// The paper caps generated task sets at one thousand sub-instances
    /// (§4); hitting this limit usually means the periods are too
    /// co-prime and the task set should be re-drawn.
    TooManySubInstances {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The requested core count is zero.
    InvalidCoreCount,
    /// A task's utilization does not fit on any core under the chosen
    /// heuristic — the machine is over-committed.
    Infeasible {
        /// Name of the task that could not be placed.
        task: String,
        /// The task's worst-case utilization at `f_max`.
        util: f64,
        /// Number of cores it was offered.
        cores: usize,
    },
    /// The task set carries a precedence graph. Precedence edges cannot
    /// cross a partition (a successor on core A cannot observe its
    /// predecessor's completion on core B), so DAG sets run under
    /// global placement only.
    GraphNotPartitionable,
    /// Rebuilding a per-core task set violated a model invariant. It
    /// holds the model error's message: the `ModelError` itself would
    /// grow this type, and `acs_core::CoreError` with it, by a word.
    Model(String),
}

impl fmt::Display for PreemptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreemptError::TooManySubInstances { limit } => write!(
                f,
                "fully preemptive expansion exceeds the sub-instance limit of {limit}"
            ),
            PreemptError::InvalidCoreCount => write!(f, "core count must be at least 1"),
            PreemptError::Infeasible { task, util, cores } => write!(
                f,
                "task `{task}` (utilization {util:.3}) does not fit on any of {cores} cores \
                 — the machine is over-committed"
            ),
            PreemptError::GraphNotPartitionable => write!(
                f,
                "task set carries a precedence graph — edges cannot cross a \
                 partition; use global placement"
            ),
            PreemptError::Model(msg) => write!(f, "per-core task set: {msg}"),
        }
    }
}

impl StdError for PreemptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_limit() {
        let e = PreemptError::TooManySubInstances { limit: 1000 };
        assert!(e.to_string().contains("1000"));
    }
}
