//! Machine placements: how jobs map onto the cores of a multiprocessor.
//!
//! [`Placement::Partitioned`] pins every task to one core
//! ([`partition`](crate::partition())) and runs each core as its own
//! single-core engine ([`MachineRun`](crate::MachineRun)).
//! [`Placement::Global`] keeps one shared ready queue and runs the `m`
//! most eligible jobs on the `m` cores — RM priority order or EDF
//! absolute-deadline order, per `SchedulingClass` — migrating jobs when
//! the eligibility order forces it. Global runs are the event engine
//! itself on `m` cores (`acs_sim::Simulator::with_cores`); see
//! `docs/ENGINE.md` for its placement, migration and preemption rules.

/// How jobs are mapped onto the cores of a multiprocessor machine.
///
/// ```
/// use acs_multi::Placement;
///
/// assert_eq!(Placement::Global.label(), "global");
/// assert_eq!("partitioned".parse(), Ok(Placement::Partitioned));
/// assert!("clustered".parse::<Placement>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Placement {
    /// Every task is pinned to one core by a bin-packing heuristic
    /// ([`partition`](crate::partition())); cores run independent
    /// single-core simulations and jobs never migrate.
    Partitioned,
    /// One shared ready queue; at every scheduling event the `m` most
    /// eligible jobs (RM priority or EDF deadline order) run on the
    /// `m` cores, migrating when necessary
    /// (`acs_sim::Simulator::with_cores`).
    Global,
}

impl Placement {
    /// Both placements, in canonical order.
    pub const ALL: [Placement; 2] = [Placement::Partitioned, Placement::Global];

    /// The short label used in scenarios, reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            Placement::Partitioned => "partitioned",
            Placement::Global => "global",
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "partitioned" => Ok(Placement::Partitioned),
            "global" => Ok(Placement::Global),
            other => Err(format!(
                "unknown placement `{other}` (known: partitioned, global)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_labels_round_trip() {
        for p in Placement::ALL {
            assert_eq!(p.label().parse::<Placement>(), Ok(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert!("clustered".parse::<Placement>().is_err());
    }
}
