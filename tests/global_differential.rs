//! Differential proof for global multiprocessor dispatch: where global
//! and partitioned placement are defined on the same system, they must
//! agree — and where they genuinely differ (contended multicore DAG
//! grids), the campaign output must still be deterministic at any
//! thread count.
//!
//! Three layers of evidence, mirroring `tests/engine_differential.rs`:
//!
//! * **Degenerate equivalence** — on edge-free sets with one task per
//!   core, global placement (the engine on `m` cores) and partitioned
//!   placement (`m` single-core engines) produce the same machine
//!   energy with zero migrations.
//! * **Campaign CSVs** — `scenarios/dag_global.txt` (both placements,
//!   a precedence diamond, a migration-forcing set) emits byte-identical
//!   CSVs at 1, 2 and 8 threads (cache hits and resolves compared by
//!   their sum at >1 thread, same convention as the engine
//!   differential), and its
//!   `hexad` partitioned rows are byte-identical to a twin scenario
//!   without a `placement` line.
//! * **Acceptance numbers** — on `dag_global.txt`, global EDF at WCS
//!   draws meets every deadline while migrating, and the paper's
//!   ACS-vs-WCS gain is nonzero on the DAG set.

mod common;

use acsched::prelude::*;
use common::split_csv;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

/// Runs `campaign` at `threads` workers and returns the CSV body.
fn campaign_csv(campaign: &Campaign, plans: &acs_runtime::CampaignPlans, threads: usize) -> String {
    let mut sink = CsvSink::new(Vec::new());
    campaign
        .run_range_with(plans, 0..campaign.cell_count(), threads, &mut sink)
        .expect("in-memory CSV sink cannot fail");
    String::from_utf8(sink.into_inner()).expect("CSV is UTF-8")
}

// ---------------------------------------------------------------------
// Degenerate equivalence.
// ---------------------------------------------------------------------

/// Edge-free set, one task per core: global and partitioned placement
/// describe the same machine. Same total energy (≤1e-9 relative), all
/// deadlines met, zero migrations under global dispatch.
#[test]
fn one_task_per_core_global_equals_partitioned() {
    let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap();
    for n in [2usize, 3, 4] {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                let wcec = 400.0 + 200.0 * i as f64;
                Task::builder(format!("t{i}"), Ticks::new(10))
                    .wcec(Cycles::from_cycles(wcec))
                    .acec(Cycles::from_cycles(wcec * 0.4))
                    .bcec(Cycles::from_cycles(wcec * 0.1))
                    .build()
                    .unwrap()
            })
            .collect();
        let set = TaskSet::new(tasks).unwrap();
        let options = SimOptions {
            hyper_periods: 4,
            ..Default::default()
        };

        // Worst-fit spreads n tasks over n cores: one task per core.
        let part = partition(&set, cpu.f_max(), n, PartitionHeuristic::WorstFitDecreasing)
            .expect("edge-free sets partition");
        assert_eq!(part.busy_cores(), n, "one task per core");
        // Per-core draw streams complicate seed alignment; WCS draws
        // sidestep it — both placements execute exactly WCEC cycles.
        let machine = MachineRun {
            partition: &part,
            cpu: &cpu,
            schedules: None,
            options: options.clone(),
        }
        .run(
            || Box::new(NoDvs),
            |_core, core_set| {
                let core_set = core_set.clone();
                move |t: TaskId, _i: u64| core_set.tasks()[t.0].wcec()
            },
            &mut |_, _| None,
        )
        .expect("partitioned run succeeds");

        let global = Simulator::new(&set, &cpu, NoDvs)
            .with_cores(n)
            .with_options(options)
            .run(&mut |t: TaskId, _i: u64| set.tasks()[t.0].wcec())
            .expect("global run succeeds");

        assert!(machine.report.all_deadlines_met(), "n={n} partitioned");
        assert!(global.report.all_deadlines_met(), "n={n} global");
        assert_eq!(
            global.report.migrations, 0,
            "n={n}: a dedicated core per job never migrates"
        );
        assert_eq!(
            machine.report.jobs_completed, global.report.jobs_completed,
            "n={n}"
        );
        let pe = machine.report.energy.as_units();
        let ge = global.report.energy.as_units();
        assert!(
            (pe - ge).abs() <= 1e-9 * pe.max(1.0),
            "n={n}: machine energies diverged: partitioned {pe} vs global {ge}"
        );
    }
}

// ---------------------------------------------------------------------
// Campaign CSVs on scenarios/dag_global.txt.
// ---------------------------------------------------------------------

fn dag_global_campaign(cache: Option<&Arc<SolverCache>>) -> Campaign {
    Scenario::load(scenario_path("dag_global.txt"))
        .expect("scenario parses")
        .campaign_builder_with_cache(cache)
        .expect("campaign builder")
        .build()
        .expect("campaign builds")
}

/// `dag_global.txt` at 1/2/8 threads: byte-identical CSVs. The two
/// 1-thread runs use separately built campaigns (cold solver caches) and
/// compare exactly, counters included; the multi-thread runs share a
/// warm cache and compare with cache hits and resolves folded into
/// their sum.
#[test]
fn dag_global_campaign_is_thread_count_deterministic() {
    let cold_a = dag_global_campaign(None);
    let cold_b = dag_global_campaign(None);
    let warm_cache = Arc::new(SolverCache::new(4096));
    let warm = dag_global_campaign(Some(&warm_cache));
    let plans = warm.plan();

    let base = campaign_csv(&cold_a, &plans, 1);
    let again = campaign_csv(&cold_b, &plans, 1);
    assert_eq!(base, again, "1-thread runs must be byte-identical");

    let folded_base: Vec<String> = base.lines().map(common::fold_cache_warmth).collect();
    for threads in [2usize, 8] {
        let multi = campaign_csv(&warm, &plans, threads);
        let folded: Vec<String> = multi.lines().map(common::fold_cache_warmth).collect();
        assert_eq!(
            folded_base, folded,
            "CSV diverged between 1 and {threads} threads"
        );
    }
}

/// A twin of `dag_global.txt`'s edge-free `hexad` grid, written as a
/// v4 file: identical axes, but no `placement` directive and no `dag`
/// block, so its multicore cells take the default partitioned
/// placement.
const HEXAD_V4_TWIN: &str = "\
acsched-scenario v4
taskset hexad
task t1 period=10 wcec=400 acec=160 bcec=40
task t2 period=10 wcec=300 acec=120 bcec=30
task t3 period=20 wcec=600 acec=240 bcec=60
task t4 period=20 wcec=400 acec=160 bcec=40
task t5 period=40 wcec=480 acec=192 bcec=48
task t6 period=40 wcec=320 acec=128 bcec=32
end
processor linear50 linear kappa=50 vmin=0.3 vmax=4
cores 1 2
class rm,edf
schedules wcs acs
policy no-dvs
policy greedy
policy ccrm
workload wcec
workload paper
seeds 1 2
hyper_periods 5
synthesis quick
";

/// The v5 grid's partitioned `hexad` rows are the v4 twin's rows, byte
/// for byte (the twin emits the same 33-column layout with `-` /
/// `partitioned` placements and zero migrations): adding the placement
/// axis and DAG sets to a scenario must not perturb a single
/// pre-existing result.
#[test]
fn hexad_partitioned_rows_are_byte_identical_to_the_v4_twin() {
    let v5 = dag_global_campaign(None);
    let v5_csv = campaign_csv(&v5, &v5.plan(), 1);

    let v4 = Scenario::from_text(HEXAD_V4_TWIN)
        .expect("twin parses")
        .campaign_builder()
        .expect("campaign builder")
        .build()
        .expect("campaign builds");
    let v4_csv = campaign_csv(&v4, &v4.plan(), 1);
    let v4_rows: Vec<&str> = v4_csv.lines().collect();
    assert!(!v4_rows.is_empty());

    let v5_hexad: Vec<String> = v5_csv
        .lines()
        .filter(|row| {
            let fields = split_csv(row);
            let (placement, migrations) = (&fields[fields.len() - 2], &fields[fields.len() - 1]);
            if fields[0] != "hexad" || placement == "global" {
                return false;
            }
            assert_eq!(migrations, "0", "partitioned cells never migrate: {row}");
            assert!(
                placement == "-" || placement == "partitioned",
                "unexpected placement {placement:?}: {row}"
            );
            true
        })
        .map(str::to_string)
        .collect();

    assert_eq!(
        v5_hexad.len(),
        v4_rows.len(),
        "the twin and the v5 partitioned slice must cover the same cells"
    );
    for (i, (v5_row, v4_row)) in v5_hexad.iter().zip(&v4_rows).enumerate() {
        assert_eq!(v5_row, v4_row, "hexad row {i} diverged from the v4 twin");
    }
}

// ---------------------------------------------------------------------
// Acceptance numbers on scenarios/dag_global.txt.
// ---------------------------------------------------------------------

/// Global EDF at worst-case draws meets every deadline while actually
/// migrating jobs (the `churn` set is engineered to force exactly one
/// migration per hyper-period), and the ACS-vs-WCS gain is nonzero on
/// the precedence diamond: the paper's claim survives both new axes.
#[test]
fn dag_global_acceptance_numbers() {
    let report = dag_global_campaign(None).run();
    assert_eq!(report.failures().count(), 0, "{}", report.to_table());

    // Global cells exist for every class, and every WCS-draw cell in the
    // whole grid is miss-free.
    let mut global_edf_wcec_migrations = 0usize;
    for cell in report.cells() {
        let stats = cell.stats().expect("no failures");
        if cell.workload == "wcec" {
            assert_eq!(
                stats.deadline_misses, 0,
                "WCS draws must be miss-free: {cell:?}"
            );
        }
        if cell.placement == "global" {
            assert_eq!(cell.partition, "-", "global cells have no partition");
            if cell.class == SchedulingClass::Edf && cell.workload == "wcec" {
                global_edf_wcec_migrations += stats.migrations;
            }
        } else {
            assert_eq!(
                stats.migrations, 0,
                "only global dispatch migrates: {cell:?}"
            );
        }
    }
    assert!(
        global_edf_wcec_migrations > 0,
        "global EDF at WCS draws must migrate on the churn set"
    );

    // ACS beats WCS on the DAG set under the paper's workload.
    let diamond = |schedule: ScheduleChoice| {
        report
            .cells()
            .iter()
            .find(|c| {
                c.task_set == "diamond"
                    && c.cores == 1
                    && c.policy == "greedy"
                    && c.schedule == schedule
                    && c.workload == "paper-normal"
                    && c.class == SchedulingClass::FixedPriorityRm
            })
            .unwrap_or_else(|| panic!("no diamond {schedule:?} cell"))
            .stats()
            .expect("no failures")
            .mean_energy
            .as_units()
    };
    let (wcs, acs) = (diamond(ScheduleChoice::Wcs), diamond(ScheduleChoice::Acs));
    assert!(
        acs < wcs,
        "ACS must beat WCS on the precedence diamond: {acs} vs {wcs}"
    );
}
