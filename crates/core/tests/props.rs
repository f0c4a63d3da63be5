//! Property-based tests for the fill rule, quantiles and the NLP
//! formulation's structural invariants.

use acs_core::fill::{fill_amounts, remaining_after};
use acs_core::quantile::{normal_cdf, normal_inverse_cdf, truncated_normal_strata};
use acs_core::{ObjectiveKind, ScheduleProblem};
use acs_model::units::{Cycles, Ticks, Volt};
use acs_model::{Task, TaskSet};
use acs_opt::problem::ConstrainedProblem;
use acs_power::{FreqModel, Processor};
use acs_preempt::FullyPreemptiveSchedule;
use proptest::prelude::*;

proptest! {
    /// Fill conservation: shares are within budgets and sum to
    /// min(total, Σ budgets); the fill is "greedy-prefix": once a chunk
    /// is partial, the rest are zero.
    #[test]
    fn fill_rule_invariants(
        budgets in prop::collection::vec(0.0f64..100.0, 1..10),
        total in 0.0f64..500.0,
    ) {
        let fills = fill_amounts(&budgets, total);
        prop_assert_eq!(fills.len(), budgets.len());
        let cap: f64 = budgets.iter().sum();
        let sum: f64 = fills.iter().sum();
        prop_assert!((sum - total.min(cap)).abs() < 1e-9);
        let mut partial_seen = false;
        for (f, b) in fills.iter().zip(&budgets) {
            prop_assert!(*f >= 0.0 && *f <= b + 1e-9);
            if partial_seen {
                prop_assert!(*f < 1e-9);
            }
            if f + 1e-9 < *b {
                partial_seen = true;
            }
        }
    }

    /// `remaining_after` is consistent with the fills.
    #[test]
    fn remaining_after_consistent(
        budgets in prop::collection::vec(0.1f64..50.0, 1..6),
        total in 0.0f64..200.0,
    ) {
        for k in 0..budgets.len() {
            let rem = remaining_after(&budgets, total, k);
            let executed: f64 = fill_amounts(&budgets, total)[..=k].iter().sum();
            prop_assert!((rem - (total - executed).max(0.0)).abs() < 1e-9);
        }
    }

    /// Φ and Φ⁻¹ are inverse on (0, 1).
    #[test]
    fn normal_cdf_inverse_round_trip(p in 1e-4f64..0.9999) {
        let x = normal_inverse_cdf(p);
        prop_assert!((normal_cdf(x) - p).abs() < 1e-6);
    }

    /// Truncated-normal strata: monotone, in-bounds, unit mass.
    #[test]
    fn strata_invariants(
        mean in -10.0f64..10.0,
        sd in 0.0f64..5.0,
        half_width in 0.1f64..10.0,
        n in 1usize..32,
    ) {
        let (lo, hi) = (mean - half_width, mean + half_width);
        let strata = truncated_normal_strata(mean, sd, lo, hi, n);
        prop_assert_eq!(strata.len(), n);
        let mass: f64 = strata.iter().map(|s| s.weight).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        for w in strata.windows(2) {
            prop_assert!(w[0].value <= w[1].value + 1e-12);
        }
        for s in &strata {
            prop_assert!(s.value >= lo - 1e-9 && s.value <= hi + 1e-9);
        }
    }

    /// The NLP formulation's structural counts hold for arbitrary small
    /// task sets, and the heuristic initial point always satisfies the
    /// workload-conservation equalities.
    #[test]
    fn formulation_structure(periods in prop::collection::vec(2u64..20, 1..4)) {
        let tasks: Vec<Task> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Task::builder(format!("t{i}"), Ticks::new(p))
                    .wcec(Cycles::from_cycles(p as f64 * 20.0))
                    .bcec(Cycles::from_cycles(p as f64 * 2.0))
                    .build()
                    .unwrap()
            })
            .collect();
        let set = TaskSet::new(tasks).unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let p = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        prop_assert_eq!(p.dim(), 2 * fps.len());
        let x0 = p.initial_point();
        let rows = p.constraints();
        prop_assert_eq!(rows.ineq.rows(), 5 * fps.len());
        prop_assert_eq!(rows.eq.rows(), set.total_instances() as usize);
        for eq in rows.eq.iter() {
            prop_assert!(eq.value(&x0).abs() < 1e-6, "eq residual {}", eq.value(&x0));
        }
        let objective = p.objective(&x0, 0.0, None);
        prop_assert!(objective.is_finite());
        prop_assert!(objective >= 0.0);
    }
}
