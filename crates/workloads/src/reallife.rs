//! The two real-life applications of the paper's Fig. 6(b): the CNC
//! machine controller and the Generic Avionics Platform (GAP).
//!
//! **CNC** (Kim et al., "Visual assessment of a real-time system design:
//! a case study on a CNC controller", RTSS 1996): eight periodic control
//! tasks with harmonic periods in the 600–4800 µs range. We model time in
//! 100 µs ticks, preserving the period structure.
//!
//! **GAP** (Locke et al., "Building a predictable avionics platform in
//! Ada: a case study", RTSS 1991): seventeen periodic avionics tasks with
//! periods from 25 ms to 1 s. The published set contains non-harmonic
//! periods (40, 59, 80 ms) that make the hyper-period — and therefore the
//! fully preemptive expansion — explode past the paper's own
//! 1000-sub-instance cap; following common practice in DVS studies we
//! harmonize them to the nearest pool value ({25, 50, 100, 200, 1000}),
//! which keeps all seventeen tasks and the 25 ms–1 s period span
//! (substitution listed in `ARCHITECTURE.md`, "§4 Experiments").
//!
//! Exact WCET tables are not recoverable from the DATE'05 paper; per its
//! own protocol for random sets, relative task weights follow the
//! published structure and the absolute WCECs are scaled to a target
//! worst-case utilization (default 70%). The `bcec_wcec_ratio` knob
//! reproduces the Fig. 6(b) sweep.

use crate::error::WorkloadError;
use acs_model::units::{Cycles, Freq, Ticks};
use acs_model::{Task, TaskSet};

/// Relative structure of one periodic task of a real-life set.
#[derive(Debug, Clone, Copy)]
struct Proto {
    name: &'static str,
    period: u64,
    /// Relative worst-case weight (arbitrary units, scaled to reach the
    /// target utilization).
    weight: f64,
}

/// CNC controller prototype: periods in 100 µs ticks (600 µs = 6 ticks).
const CNC: [Proto; 8] = [
    Proto {
        name: "position_x",
        period: 6,
        weight: 0.35,
    },
    Proto {
        name: "position_y",
        period: 6,
        weight: 0.40,
    },
    Proto {
        name: "velocity_x",
        period: 12,
        weight: 1.65,
    },
    Proto {
        name: "velocity_y",
        period: 12,
        weight: 1.65,
    },
    Proto {
        name: "interpolator",
        period: 24,
        weight: 5.70,
    },
    Proto {
        name: "status_update",
        period: 24,
        weight: 3.80,
    },
    Proto {
        name: "command_parse",
        period: 48,
        weight: 9.60,
    },
    Proto {
        name: "display",
        period: 48,
        weight: 12.80,
    },
];

/// GAP prototype: periods in milliseconds (harmonized pool
/// {25, 50, 100, 200, 1000}).
const GAP: [Proto; 17] = [
    Proto {
        name: "timer_interrupt",
        period: 25,
        weight: 1.0,
    },
    Proto {
        name: "aircraft_flight_data",
        period: 25,
        weight: 2.0,
    },
    Proto {
        name: "steering",
        period: 50,
        weight: 1.5,
    }, // 40 ms harmonized
    Proto {
        name: "radar_control",
        period: 50,
        weight: 2.5,
    },
    Proto {
        name: "target_tracking",
        period: 50,
        weight: 2.0,
    },
    Proto {
        name: "target_sweetening",
        period: 50,
        weight: 1.5,
    }, // 59 ms harmonized
    Proto {
        name: "hud_display",
        period: 50,
        weight: 3.0,
    },
    Proto {
        name: "display_graphics",
        period: 100,
        weight: 4.0,
    }, // 80 ms harmonized
    Proto {
        name: "nav_update",
        period: 100,
        weight: 3.0,
    }, // 80 ms harmonized
    Proto {
        name: "weapon_protocol",
        period: 100,
        weight: 1.0,
    },
    Proto {
        name: "nav_steering",
        period: 200,
        weight: 3.0,
    },
    Proto {
        name: "tracking_filter",
        period: 200,
        weight: 2.0,
    },
    Proto {
        name: "weapon_release",
        period: 200,
        weight: 1.0,
    },
    Proto {
        name: "weapon_aiming",
        period: 1000,
        weight: 3.0,
    },
    Proto {
        name: "nav_status",
        period: 1000,
        weight: 1.0,
    },
    Proto {
        name: "bet_e_status",
        period: 1000,
        weight: 1.0,
    },
    Proto {
        name: "bit_processing",
        period: 1000,
        weight: 2.0,
    },
];

fn build(
    protos: &[Proto],
    f_max: Freq,
    bcec_wcec_ratio: f64,
    target_utilization: f64,
) -> Result<TaskSet, WorkloadError> {
    if !(0.0 < bcec_wcec_ratio && bcec_wcec_ratio <= 1.0) {
        return Err(WorkloadError::InvalidConfig {
            reason: format!("BCEC/WCEC ratio must be in (0, 1], got {bcec_wcec_ratio}"),
        });
    }
    if !(0.0 < target_utilization && target_utilization <= 1.0) {
        return Err(WorkloadError::InvalidConfig {
            reason: format!("target utilization must be in (0, 1], got {target_utilization}"),
        });
    }
    let fmax = f_max.as_cycles_per_ms();
    if fmax <= 0.0 {
        return Err(WorkloadError::InvalidConfig {
            reason: "f_max must be positive".into(),
        });
    }
    // Scale weights so that Σ wcec/(p·fmax) = target.
    let weight_util: f64 = protos.iter().map(|p| p.weight / p.period as f64).sum();
    let scale = target_utilization * fmax / weight_util;
    let tasks: Vec<Task> = protos
        .iter()
        .map(|p| {
            let wcec = p.weight * scale;
            let bcec = wcec * bcec_wcec_ratio;
            Task::builder(p.name, Ticks::new(p.period))
                .wcec(Cycles::from_cycles(wcec))
                .bcec(Cycles::from_cycles(bcec))
                .acec(Cycles::from_cycles((wcec + bcec) / 2.0))
                .build()
        })
        .collect::<Result<_, _>>()?;
    Ok(TaskSet::new(tasks)?)
}

/// The CNC machine-controller task set (8 tasks; time unit 100 µs).
///
/// # Errors
///
/// [`WorkloadError::InvalidConfig`] on out-of-range parameters.
pub fn cnc(
    f_max: Freq,
    bcec_wcec_ratio: f64,
    target_utilization: f64,
) -> Result<TaskSet, WorkloadError> {
    build(&CNC, f_max, bcec_wcec_ratio, target_utilization)
}

/// The Generic Avionics Platform task set (17 tasks; time unit 1 ms).
///
/// # Errors
///
/// [`WorkloadError::InvalidConfig`] on out-of-range parameters.
pub fn gap(
    f_max: Freq,
    bcec_wcec_ratio: f64,
    target_utilization: f64,
) -> Result<TaskSet, WorkloadError> {
    build(&GAP, f_max, bcec_wcec_ratio, target_utilization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_preempt::FullyPreemptiveSchedule;

    fn fmax() -> Freq {
        Freq::from_cycles_per_ms(200.0)
    }

    #[test]
    fn cnc_structure() {
        let set = cnc(fmax(), 0.5, 0.7).unwrap();
        assert_eq!(set.len(), 8);
        assert_eq!(set.hyper_period(), Ticks::new(48));
        assert!((set.utilization_at(fmax()) - 0.7).abs() < 1e-9);
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        // 8 segments (multiples of 6 in 48) × 8 tasks.
        assert_eq!(fps.len(), 64);
    }

    #[test]
    fn gap_structure_respects_paper_cap() {
        let set = gap(fmax(), 0.5, 0.7).unwrap();
        assert_eq!(set.len(), 17);
        assert_eq!(set.hyper_period(), Ticks::new(1000));
        assert!((set.utilization_at(fmax()) - 0.7).abs() < 1e-9);
        let fps = FullyPreemptiveSchedule::expand_capped(&set, 1000).unwrap();
        // 40 segments × 17 tasks = 680 ≤ the paper's 1000 cap.
        assert_eq!(fps.len(), 680);
    }

    #[test]
    fn ratio_sweep_changes_only_cycle_spread() {
        let a = cnc(fmax(), 0.1, 0.7).unwrap();
        let b = cnc(fmax(), 0.9, 0.7).unwrap();
        for (ta, tb) in a.tasks().iter().zip(b.tasks()) {
            assert_eq!(ta.period(), tb.period());
            assert_eq!(ta.wcec(), tb.wcec());
            assert!(ta.bcec() < tb.bcec());
            assert!(ta.acec() < tb.acec());
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(cnc(fmax(), 0.0, 0.7).is_err());
        assert!(cnc(fmax(), 0.5, 0.0).is_err());
        assert!(cnc(Freq::ZERO, 0.5, 0.7).is_err());
        assert!(gap(fmax(), 1.1, 0.7).is_err());
    }

    #[test]
    fn rm_priorities_follow_periods() {
        let set = gap(fmax(), 0.5, 0.7).unwrap();
        let periods: Vec<u64> = set.tasks().iter().map(|t| t.period().get()).collect();
        let mut sorted = periods.clone();
        sorted.sort_unstable();
        assert_eq!(periods, sorted);
    }
}
