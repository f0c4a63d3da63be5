//! The workload fill rule (paper §3.2, Fig. 5).
//!
//! A preempted instance executes through its sub-instances in order, and
//! the runtime dispatches sub-instance `k+1` only after sub-instance `k`
//! has exhausted its worst-case budget `R̂_k`. Consequently, when the
//! instance's actual total workload is `c`, the cycles executed inside
//! sub-instance `k` are
//!
//! ```text
//! a_k = clamp(c − Σ_{l<k} R̂_l, 0, R̂_k)
//! ```
//!
//! The paper's Fig. 5 example: WCEC = 30, budgets (10, 10, 10), actual
//! (average) workload 15 ⇒ executed (10, 5, 0).

/// Distributes a total workload of `total` cycles over sub-instance
/// budgets according to the fill rule, in raw `f64` cycles.
///
/// Negative budgets (possible as transient solver iterates) are treated
/// as zero. Totals beyond the budget sum saturate every chunk.
pub fn fill_amounts(budgets: &[f64], total: f64) -> Vec<f64> {
    let mut remaining = total.max(0.0);
    budgets
        .iter()
        .map(|&b| {
            let b = b.max(0.0);
            let a = remaining.min(b);
            remaining -= a;
            a
        })
        .collect()
}

/// Cycles left to execute *after* chunk `k` under the fill rule — i.e.
/// the remaining workload when chunk `k+1` is dispatched.
pub fn remaining_after(budgets: &[f64], total: f64, k: usize) -> f64 {
    let executed: f64 = fill_amounts(budgets, total)[..=k].iter().sum();
    (total - executed).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig5_example() {
        // ACEC 15, three chunks of WCEC 10 each → (10, 5, 0).
        assert_eq!(
            fill_amounts(&[10.0, 10.0, 10.0], 15.0),
            vec![10.0, 5.0, 0.0]
        );
    }

    #[test]
    fn worst_case_fills_everything() {
        assert_eq!(fill_amounts(&[10.0, 20.0], 30.0), vec![10.0, 20.0]);
    }

    #[test]
    fn overflow_saturates() {
        assert_eq!(fill_amounts(&[10.0, 20.0], 99.0), vec![10.0, 20.0]);
    }

    #[test]
    fn zero_total_executes_nothing() {
        assert_eq!(fill_amounts(&[10.0, 20.0], 0.0), vec![0.0, 0.0]);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        assert_eq!(fill_amounts(&[-5.0, 10.0], 7.0), vec![0.0, 7.0]);
        assert_eq!(fill_amounts(&[10.0], -3.0), vec![0.0]);
    }

    #[test]
    fn remaining_after_tracks_prefix() {
        let budgets = [10.0, 10.0, 10.0];
        assert_eq!(remaining_after(&budgets, 15.0, 0), 5.0);
        assert_eq!(remaining_after(&budgets, 15.0, 1), 0.0);
        assert_eq!(remaining_after(&budgets, 15.0, 2), 0.0);
    }

    #[test]
    fn conservation_property() {
        // Sum of fills equals min(total, sum of budgets).
        for (budgets, total) in [
            (vec![3.0, 4.0, 5.0], 6.0),
            (vec![1.0, 1.0], 5.0),
            (vec![0.0, 2.0], 1.0),
        ] {
            let fills = fill_amounts(&budgets, total);
            let sum: f64 = fills.iter().sum();
            let cap: f64 = budgets.iter().map(|b| b.max(0.0)).sum();
            assert!((sum - total.min(cap)).abs() < 1e-12);
            for (f, b) in fills.iter().zip(&budgets) {
                assert!(*f >= 0.0 && *f <= b.max(0.0) + 1e-12);
            }
        }
    }
}
