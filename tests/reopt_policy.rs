//! Paper-faithfulness and determinism acceptance tests for the online
//! re-optimizing DVS policy (`ReOpt`).
//!
//! * Faithfulness: on a fig6a-style random-workload grid, `ReOpt` must
//!   meet every deadline and use no more mean energy than
//!   `GreedyReclaim` under the same schedules and paired draws — the
//!   paper's central claim, moved online.
//! * Determinism: boundary solves are pure functions of the quantized
//!   boundary state, so running the same campaign with the solver cache
//!   enabled and disabled must produce identical energy and deadline
//!   statistics (only the cache counters may differ).

use acsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

/// Fig6a-style random sets (paper generator, 70% utilization, ratio
/// 0.1), restricted to a divisor-friendly period pool so the expansions
/// stay small enough for boundary NLPs in debug test builds. Mixed
/// periods matter: equal-period draws degenerate to sequential frames
/// where greedy reclamation already captures nearly all slack.
fn fig6a_style_sets(count: usize) -> Vec<(String, TaskSet)> {
    let mut cfg = RandomSetConfig::paper(4, 0.1, Freq::from_cycles_per_ms(200.0));
    cfg.period_pool = vec![10, 20, 40];
    (0..count)
        .filter_map(|i| {
            generate(&cfg, &mut StdRng::seed_from_u64(100 + i as u64))
                .ok()
                .map(|set| (format!("rand{i}"), set))
        })
        .collect()
}

fn reopt_campaign(sets: Vec<(String, TaskSet)>, cache_capacity: usize) -> CampaignReport {
    Campaign::builder()
        .task_sets(sets)
        .processor("linear", cpu())
        .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
        .policy(PolicySpec::greedy())
        .policy(PolicySpec::reopt_with(
            ReOptConfig::default(),
            cache_capacity,
        ))
        .workload(WorkloadSpec::Paper)
        .seeds([11, 12])
        .hyper_periods(2)
        .build()
        .unwrap()
        .run()
}

#[test]
fn reopt_no_worse_than_greedy_on_fig6a_grid() {
    let sets = fig6a_style_sets(2);
    assert!(!sets.is_empty(), "generator produced no sets");
    let names: Vec<String> = sets.iter().map(|(n, _)| n.clone()).collect();
    let report = reopt_campaign(sets, 4096);
    assert_eq!(
        report.failures().count(),
        0,
        "no cell may fail:\n{}",
        report.to_table()
    );
    assert_eq!(report.total_deadline_misses(), 0, "{}", report.to_table());
    for name in &names {
        for sched in [ScheduleChoice::Wcs, ScheduleChoice::Acs] {
            let energy = |policy: &str| {
                report
                    .find(name, "linear", sched, policy, "paper-normal")
                    .and_then(|c| c.stats())
                    .map(|s| s.mean_energy.as_units())
                    .unwrap_or_else(|| panic!("missing cell {name}/{sched}/{policy}"))
            };
            let (greedy, reopt) = (energy("greedy"), energy("reopt"));
            assert!(
                reopt <= greedy * (1.0 + 1e-9),
                "[{name} {sched}] reopt {reopt} vs greedy {greedy}"
            );
        }
        // Under the WCS schedule the online re-optimization must recover
        // a real share of the offline ACS gain, not just tie.
        let wcs_greedy = report
            .find(
                name,
                "linear",
                ScheduleChoice::Wcs,
                "greedy",
                "paper-normal",
            )
            .and_then(|c| c.stats())
            .unwrap()
            .mean_energy
            .as_units();
        let wcs_reopt = report
            .find(name, "linear", ScheduleChoice::Wcs, "reopt", "paper-normal")
            .and_then(|c| c.stats())
            .unwrap()
            .mean_energy
            .as_units();
        assert!(
            wcs_reopt < wcs_greedy,
            "[{name}] WCS+reopt {wcs_reopt} should beat WCS+greedy {wcs_greedy}"
        );
    }
    // The solver actually ran (this is not a vacuous comparison).
    let lookups: usize = report
        .cells()
        .iter()
        .filter_map(|c| c.stats())
        .map(|s| s.solver_lookups)
        .sum();
    assert!(lookups > 0);
}

/// Adversarial safety: tight utilization forces `ReOpt` to stretch end
/// times right up against the worst-case chain, and all-WCEC draws then
/// demand the stretched schedule actually absorb the worst case. This
/// also exercises the engine's budget roll-forward semantics (leftover
/// budget past a *static* milestone must wait for the next chunk's
/// window — re-optimized paces legitimately run past static milestones).
#[test]
fn reopt_safe_on_tight_sets_under_worst_case_draws() {
    let mut cfg = RandomSetConfig::paper(5, 0.1, Freq::from_cycles_per_ms(200.0));
    cfg.period_pool = vec![10, 20, 40];
    cfg.target_utilization = 0.8;
    let sets: Vec<(String, TaskSet)> = (0..2)
        .filter_map(|i| {
            generate(&cfg, &mut StdRng::seed_from_u64(7 + i as u64))
                .ok()
                .map(|set| (format!("tight{i}"), set))
        })
        .collect();
    assert!(!sets.is_empty());
    let report = Campaign::builder()
        .task_sets(sets)
        .processor("linear", cpu())
        .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
        .policy(PolicySpec::reopt())
        .workload(WorkloadSpec::Paper)
        .workload(WorkloadSpec::ConstantWcec)
        .seeds([3])
        .hyper_periods(2)
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.failures().count(),
        0,
        "no cell may fail:\n{}",
        report.to_table()
    );
    assert_eq!(report.total_deadline_misses(), 0, "{}", report.to_table());
}

#[test]
fn reopt_reports_identical_with_cache_on_and_off() {
    let sets = fig6a_style_sets(1);
    assert!(!sets.is_empty());
    let cached = reopt_campaign(sets.clone(), 4096);
    let uncached = reopt_campaign(sets, 0);
    assert_eq!(cached.cells().len(), uncached.cells().len());
    for (a, b) in cached.cells().iter().zip(uncached.cells()) {
        assert_eq!(a.task_set, b.task_set);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.policy, b.policy);
        let (sa, sb) = (a.stats().unwrap(), b.stats().unwrap());
        // Everything observable must match bit-for-bit; only the cache
        // counters are allowed to differ.
        assert_eq!(
            sa.mean_energy, sb.mean_energy,
            "[{} {}]",
            a.task_set, a.policy
        );
        assert_eq!(sa.std_energy, sb.std_energy);
        assert_eq!(sa.p95_energy, sb.p95_energy);
        assert_eq!(sa.deadline_misses, sb.deadline_misses);
        assert_eq!(sa.jobs_completed, sb.jobs_completed);
        assert_eq!(sa.voltage_switches, sb.voltage_switches);
        assert_eq!(sa.saturated_dispatches, sb.saturated_dispatches);
        assert_eq!(sa.worst_lateness_ms, sb.worst_lateness_ms);
        assert_eq!(sa.solver_lookups, sb.solver_lookups);
        // Carry evolution is cache-independent (the fan-out never
        // consumes carry state), so warm-carry hits match exactly.
        assert_eq!(sa.warm_carry_hits, sb.warm_carry_hits);
        if a.policy == "reopt" {
            // The three mechanisms partition the lookups, with and
            // without the cache...
            for s in [&sa, &sb] {
                assert_eq!(
                    s.solver_lookups,
                    s.warm_carry_hits + s.solver_cache_hits + s.boundary_resolves,
                    "[{} {}] lookup partition broken",
                    a.task_set,
                    a.policy
                );
            }
            // ...and with the cache off, every lookup the carry does not
            // answer is a fresh re-solve.
            assert_eq!(sb.solver_cache_hits, 0);
            assert_eq!(sb.boundary_resolves, sb.solver_lookups - sb.warm_carry_hits);
        } else {
            assert_eq!(sa.solver_lookups, 0);
        }
    }
    // The shared cache absorbed repeated states across seeds and
    // hyper-periods.
    let resolves = |r: &CampaignReport| -> usize {
        r.cells()
            .iter()
            .filter_map(|c| c.stats())
            .map(|s| s.boundary_resolves)
            .sum()
    };
    assert!(
        resolves(&cached) < resolves(&uncached),
        "cache saved no re-solves: {} vs {}",
        resolves(&cached),
        resolves(&uncached)
    );
}

/// Runs on one thread: the campaign-wide solver cache is shared by the
/// workers, so with several of them the split of lookups between
/// `solver_cache_hits` and `boundary_resolves` depends on interleaving,
/// and callers compare whole `CellStats`, counters included.
fn reopt_only_campaign(sets: Vec<(String, TaskSet)>, cfg: ReOptConfig) -> CampaignReport {
    Campaign::builder()
        .task_sets(sets)
        .processor("linear", cpu())
        .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
        .policy(PolicySpec::reopt_with(cfg, 4096))
        .workload(WorkloadSpec::Paper)
        .seeds([11, 12])
        .hyper_periods(3)
        .threads(1)
        .build()
        .unwrap()
        .run()
}

/// Incremental warm-carry semantics across multiple boundaries:
///
/// * Under the default config the carry answers a real share of lookups
///   (`warm_carry_hits > 0`), and every carry hit *is* an adoption —
///   the gate passed — so `warm_carry_hits <= resolves_adopted` and the
///   lookup partition `lookups == carry + cache + resolves` holds.
/// * When the gate can never pass (`min_rel_gain = 1.0` demands a free
///   lunch), the carry attempt must be inert: every observable —
///   energies, misses, *and* solver counters — is bit-identical to a
///   run with `warm_carry` disabled outright, and no carry hit is ever
///   recorded.
#[test]
fn warm_carry_adopts_only_on_gate_pass_and_is_inert_when_rejected() {
    let sets = fig6a_style_sets(2);
    assert!(!sets.is_empty());

    // Default config: the carry fires and every hit is an adoption.
    let default_run = reopt_only_campaign(sets.clone(), ReOptConfig::default());
    assert_eq!(default_run.failures().count(), 0);
    let mut total_carry_hits = 0usize;
    for cell in default_run.cells() {
        let s = cell.stats().unwrap();
        assert_eq!(
            s.solver_lookups,
            s.warm_carry_hits + s.solver_cache_hits + s.boundary_resolves,
            "[{}] lookup partition broken",
            cell.task_set
        );
        assert!(
            s.warm_carry_hits <= s.resolves_adopted,
            "[{}] a carry hit that was not adopted: {} hits vs {} adoptions",
            cell.task_set,
            s.warm_carry_hits,
            s.resolves_adopted
        );
        total_carry_hits += s.warm_carry_hits;
    }
    assert!(
        total_carry_hits > 0,
        "warm carry never fired on the default config"
    );

    // Unpassable gate: carry attempts happen but must change nothing.
    let unpassable = |warm_carry: bool| {
        let cfg = ReOptConfig {
            min_rel_gain: 1.0,
            warm_carry,
            ..ReOptConfig::default()
        };
        reopt_only_campaign(sets.clone(), cfg)
    };
    let (with_carry, without_carry) = (unpassable(true), unpassable(false));
    assert_eq!(with_carry.cells().len(), without_carry.cells().len());
    for (a, b) in with_carry.cells().iter().zip(without_carry.cells()) {
        let (sa, sb) = (a.stats().unwrap(), b.stats().unwrap());
        assert_eq!(
            sa.warm_carry_hits, 0,
            "[{}] gate passed at 100% gain",
            a.task_set
        );
        assert_eq!(sb.warm_carry_hits, 0);
        assert_eq!(
            sa, sb,
            "[{} {}] rejected carry perturbed the run",
            a.task_set, a.schedule
        );
    }
}
