//! The paper's random task-set generator (§4).
//!
//! "For a given number of tasks, one hundred random task sets were
//! constructed and each task set results in maximum one thousand
//! sub-instances. [...] The deadline of each task was chosen from a
//! uniform distribution between 10 and 30 \[ms\]. The WCEC of a particular
//! task instance was adjusted such that the processor utilization is
//! about 70% when all the tasks are running at the maximum speed."
//!
//! Arbitrary integer periods in `[10, 30]` give astronomically large
//! hyper-periods almost surely, so — consistent with the published
//! 1000-sub-instance cap — periods are drawn from the divisor-friendly
//! pool `{10, 12, 15, 16, 20, 24, 30}` (hyper-period ≤ 240 ms) and draws
//! whose expansion would exceed the cap are rejected and redrawn
//! (substitution listed in `ARCHITECTURE.md`, "§4 Experiments").
//!
//! Utilization shares use **UUniFast** (Bini & Buttazzo), the standard
//! unbiased simplex sampler in the real-time-systems literature.

use crate::error::WorkloadError;
use acs_model::units::{Cycles, Freq, Ticks};
use acs_model::{Task, TaskSet};
use acs_preempt::FullyPreemptiveSchedule;
use rand::Rng;

/// Configuration of the random generator; defaults mirror the paper.
#[derive(Debug, Clone)]
pub struct RandomSetConfig {
    /// Number of tasks (paper sweeps 2–10).
    pub num_tasks: usize,
    /// `BCEC/WCEC` ratio — 0.1 is "highly flexible", 0.9 "almost fixed".
    pub bcec_wcec_ratio: f64,
    /// Worst-case utilization at maximum speed (paper: ≈ 0.7).
    pub target_utilization: f64,
    /// Maximum processor speed used for the utilization scaling.
    pub f_max: Freq,
    /// Candidate periods (ms).
    pub period_pool: Vec<u64>,
    /// Per-task effective-capacitance range (uniform draw).
    pub c_eff_range: (f64, f64),
    /// Reject draws expanding to more than this many sub-instances
    /// (paper: 1000).
    pub sub_instance_cap: usize,
    /// Give up after this many rejected draws.
    pub max_attempts: usize,
}

impl RandomSetConfig {
    /// The paper's configuration for `num_tasks` tasks at the given
    /// BCEC/WCEC ratio.
    pub fn paper(num_tasks: usize, bcec_wcec_ratio: f64, f_max: Freq) -> Self {
        RandomSetConfig {
            num_tasks,
            bcec_wcec_ratio,
            target_utilization: 0.7,
            f_max,
            period_pool: vec![10, 12, 15, 16, 20, 24, 30],
            c_eff_range: (0.5, 1.5),
            sub_instance_cap: 1000,
            max_attempts: 200,
        }
    }
}

/// UUniFast: `n` non-negative shares summing to `total`, uniformly over
/// the simplex.
pub fn uunifast(n: usize, total: f64, rng: &mut impl Rng) -> Vec<f64> {
    assert!(n > 0, "need at least one share");
    let mut shares = Vec::with_capacity(n);
    let mut rest = total;
    for i in 1..n {
        let next = rest * rng.gen::<f64>().powf(1.0 / (n - i) as f64);
        shares.push(rest - next);
        rest = next;
    }
    shares.push(rest);
    shares
}

/// Generates one random task set per the configuration.
///
/// # Errors
///
/// [`WorkloadError::InvalidConfig`] for bad parameters;
/// [`WorkloadError::GenerationFailed`] when no draw fits the
/// sub-instance cap within `max_attempts`.
pub fn generate(config: &RandomSetConfig, rng: &mut impl Rng) -> Result<TaskSet, WorkloadError> {
    if config.num_tasks == 0 {
        return Err(WorkloadError::InvalidConfig {
            reason: "num_tasks must be positive".into(),
        });
    }
    if !(0.0 < config.bcec_wcec_ratio && config.bcec_wcec_ratio <= 1.0) {
        return Err(WorkloadError::InvalidConfig {
            reason: format!(
                "BCEC/WCEC ratio must be in (0, 1], got {}",
                config.bcec_wcec_ratio
            ),
        });
    }
    if !(0.0 < config.target_utilization && config.target_utilization <= 1.0) {
        return Err(WorkloadError::InvalidConfig {
            reason: format!(
                "target utilization must be in (0, 1], got {}",
                config.target_utilization
            ),
        });
    }
    if config.period_pool.is_empty() {
        return Err(WorkloadError::InvalidConfig {
            reason: "period pool must not be empty".into(),
        });
    }
    let fmax = config.f_max.as_cycles_per_ms();
    if fmax <= 0.0 {
        return Err(WorkloadError::InvalidConfig {
            reason: "f_max must be positive".into(),
        });
    }

    for _ in 0..config.max_attempts {
        let shares = uunifast(config.num_tasks, config.target_utilization, rng);
        let mut tasks = Vec::with_capacity(config.num_tasks);
        for (i, &u_i) in shares.iter().enumerate() {
            let period = config.period_pool[rng.gen_range(0..config.period_pool.len())];
            // WCEC so that wcec/(period·fmax) = u_i; at least 1 cycle.
            let wcec = (u_i * period as f64 * fmax).max(1.0);
            let bcec = (wcec * config.bcec_wcec_ratio).max(0.5);
            let acec = (bcec + wcec) / 2.0;
            let c_eff = rng.gen_range(config.c_eff_range.0..=config.c_eff_range.1);
            tasks.push(
                Task::builder(format!("t{i}"), Ticks::new(period))
                    .wcec(Cycles::from_cycles(wcec))
                    .acec(Cycles::from_cycles(acec))
                    .bcec(Cycles::from_cycles(bcec))
                    .c_eff(c_eff)
                    .build()?,
            );
        }
        let set = TaskSet::new(tasks)?;
        if FullyPreemptiveSchedule::expand_capped(&set, config.sub_instance_cap).is_ok() {
            return Ok(set);
        }
    }
    Err(WorkloadError::GenerationFailed {
        attempts: config.max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fmax() -> Freq {
        Freq::from_cycles_per_ms(200.0)
    }

    #[test]
    fn uunifast_sums_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1, 2, 5, 10] {
            let s = uunifast(n, 0.7, &mut rng);
            assert_eq!(s.len(), n);
            let sum: f64 = s.iter().sum();
            assert!((sum - 0.7).abs() < 1e-12);
            assert!(s.iter().all(|&x| (0.0..=0.7 + 1e-12).contains(&x)));
        }
    }

    #[test]
    fn uunifast_is_not_degenerate() {
        // Shares should differ from the equal split on average.
        let mut rng = StdRng::seed_from_u64(2);
        let s = uunifast(5, 1.0, &mut rng);
        let spread = s.iter().fold(0.0f64, |m, &x| m.max((x - 0.2).abs()));
        assert!(spread > 0.01);
    }

    #[test]
    fn generated_set_matches_paper_invariants() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2, 4, 6, 8, 10] {
            for ratio in [0.1, 0.5, 0.9] {
                let cfg = RandomSetConfig::paper(n, ratio, fmax());
                let set = generate(&cfg, &mut rng).unwrap();
                assert_eq!(set.len(), n);
                let u = set.utilization_at(fmax());
                assert!((u - 0.7).abs() < 0.01, "utilization = {u}");
                for t in set.tasks() {
                    assert!(
                        (t.bcec_wcec_ratio() - ratio).abs() < 0.1 || t.bcec().as_cycles() == 0.5
                    );
                    assert!(t.period().get() >= 10 && t.period().get() <= 30);
                    let mid = (t.bcec().as_cycles() + t.wcec().as_cycles()) / 2.0;
                    assert!((t.acec().as_cycles() - mid).abs() < 1e-9);
                }
                let fps = FullyPreemptiveSchedule::expand_capped(&set, 1000).unwrap();
                assert!(fps.len() <= 1000);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomSetConfig::paper(4, 0.5, fmax());
        let a = generate(&cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = generate(&cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cfg = RandomSetConfig::paper(0, 0.5, fmax());
        assert!(matches!(
            generate(&cfg, &mut rng),
            Err(WorkloadError::InvalidConfig { .. })
        ));
        cfg = RandomSetConfig::paper(3, 0.0, fmax());
        assert!(generate(&cfg, &mut rng).is_err());
        cfg = RandomSetConfig::paper(3, 0.5, fmax());
        cfg.target_utilization = 1.5;
        assert!(generate(&cfg, &mut rng).is_err());
        cfg = RandomSetConfig::paper(3, 0.5, Freq::ZERO);
        assert!(generate(&cfg, &mut rng).is_err());
        cfg = RandomSetConfig::paper(3, 0.5, fmax());
        cfg.period_pool.clear();
        assert!(generate(&cfg, &mut rng).is_err());
    }

    #[test]
    fn impossible_cap_reports_generation_failure() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cfg = RandomSetConfig::paper(10, 0.5, fmax());
        cfg.sub_instance_cap = 5; // cannot fit 10 tasks
        cfg.max_attempts = 10;
        assert_eq!(
            generate(&cfg, &mut rng),
            Err(WorkloadError::GenerationFailed { attempts: 10 })
        );
    }
}
