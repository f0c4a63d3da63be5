//! Acceptance + property suite for the arrival-source layer
//! (`acs-trace`) and its campaign integration:
//!
//! * sporadic sources never violate the minimum inter-arrival time —
//!   every same-task gap lies in `[P, P·1.5)` — over random task sets
//!   and seeds;
//! * generated sources (Poisson, MMPP) are pure functions of
//!   `(seed, task)`: rebuilding the source replays the identical
//!   stream, a different seed diverges, and each task's stream is
//!   untouched by the other tasks in the set;
//! * the checked-in `scenarios/arrivals_sweep.txt` (plus an inline v4
//!   grid covering Poisson and all MMPP profiles) streams
//!   byte-identical CSV at 1, 2 and 8 worker threads;
//! * the sweep's `arrivals periodic` rows are byte-identical to the
//!   same grid under a v3 header with no `arrivals` line
//!   (`periodic_cells_of_the_sweep_match_the_v3_grid`): periodic cells
//!   attach no source and run the engine's built-in release grid.

mod common;

use acsched::prelude::*;
use acsched::trace::{Mmpp, Poisson, Sporadic};
use proptest::prelude::*;

fn scenario_dir() -> String {
    format!("{}/scenarios", env!("CARGO_MANIFEST_DIR"))
}

/// Period pool with a bounded hyper-period, mixing harmonic and
/// non-harmonic relations (lcm ≤ 360).
const PERIODS: [u64; 6] = [8, 9, 10, 12, 15, 18];

fn build_set(picks: &[usize]) -> TaskSet {
    let tasks: Vec<Task> = picks
        .iter()
        .enumerate()
        .map(|(i, p_idx)| {
            let period = PERIODS[p_idx % PERIODS.len()];
            Task::builder(format!("t{i}"), Ticks::new(period))
                .wcec(Cycles::from_cycles(period as f64 * 6.0))
                .acec(Cycles::from_cycles(period as f64 * 2.4))
                .bcec(Cycles::from_cycles(period as f64 * 0.6))
                .build()
                .unwrap()
        })
        .collect();
    TaskSet::new(tasks).unwrap()
}

/// Drains `windows` hyper-period windows from `source`, returning
/// per-task absolute release times (ms from time zero).
fn absolute_releases(source: &mut dyn ArrivalSource, set: &TaskSet, windows: u64) -> Vec<Vec<f64>> {
    let h = set.hyper_period().get() as f64;
    let mut per_task = vec![Vec::new(); set.len()];
    let mut buf = Vec::new();
    for w in 0..windows {
        buf.clear();
        source
            .fill_window(w, &mut buf)
            .expect("generators never fail");
        for job in &buf {
            per_task[job.task].push(w as f64 * h + job.release_ms);
        }
    }
    per_task
}

fn sporadic_case(picks: &[usize], seed: u64) -> Result<(), String> {
    let set = build_set(picks);
    let mut source = Sporadic::new(&set, seed);
    let releases = absolute_releases(&mut source, &set, 16);
    for (task, times) in releases.iter().enumerate() {
        let period = set.tasks()[task].period().get() as f64;
        // Window boundaries only partition the stream; gaps are
        // checked on the stitched absolute times, including the
        // implicit release at t = 0 the stream starts after.
        let mut prev = 0.0;
        for &t in times {
            let gap = t - prev;
            if gap < period - 1e-9 {
                return Err(format!(
                    "task {task}: gap {gap} under the period {period} (seed {seed})"
                ));
            }
            if gap >= period * (1.0 + Sporadic::JITTER) + 1e-9 {
                return Err(format!(
                    "task {task}: gap {gap} beyond the jitter bound (seed {seed})"
                ));
            }
            prev = t;
        }
        if times.is_empty() {
            return Err(format!("task {task}: no arrivals in 16 windows"));
        }
    }
    Ok(())
}

proptest! {
    /// The sporadic source keeps every same-task inter-arrival inside
    /// `[P, P·(1 + JITTER))`, for any task set and seed.
    #[test]
    fn sporadic_min_gap_never_violated(
        picks in prop::collection::vec(0usize..PERIODS.len(), 1..5),
        seed in 0u64..1u64 << 48,
    ) {
        if let Err(msg) = sporadic_case(&picks, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

type SourceBuilder = fn(&TaskSet, u64) -> Box<dyn ArrivalSource>;

fn purity_case(picks: &[usize], seed: u64) -> Result<(), String> {
    let set = build_set(picks);
    let builders: [(&str, SourceBuilder); 3] = [
        ("poisson", |s, sd| Box::new(Poisson::new(s, sd))),
        ("mmpp:bursty", |s, sd| {
            Box::new(Mmpp::new(s, sd, MmppProfile::Bursty))
        }),
        ("mmpp:heavy", |s, sd| {
            Box::new(Mmpp::new(s, sd, MmppProfile::Heavy))
        }),
    ];
    for (name, make) in builders {
        let a = absolute_releases(&mut *make(&set, seed), &set, 8);
        let b = absolute_releases(&mut *make(&set, seed), &set, 8);
        if a != b {
            return Err(format!("{name}: same (seed, set) diverged (seed {seed})"));
        }
        let other = absolute_releases(&mut *make(&set, seed ^ 0x9e37_79b9), &set, 8);
        if a == other {
            return Err(format!("{name}: different seeds collided (seed {seed})"));
        }
        // Per-task purity: growing the set with one more task must not
        // disturb the streams of the tasks already there. The new task
        // reuses the longest period so the rate-monotonic sort (stable,
        // by period) appends it without renumbering existing tasks.
        let longest = *picks
            .iter()
            .max_by_key(|&&p| PERIODS[p % PERIODS.len()])
            .unwrap();
        let mut grown_picks = picks.to_vec();
        grown_picks.push(longest);
        let grown = build_set(&grown_picks);
        let g = absolute_releases(&mut *make(&grown, seed), &grown, 8);
        if g[..set.len()] != a[..] {
            return Err(format!(
                "{name}: adding a task perturbed existing streams (seed {seed})"
            ));
        }
    }
    Ok(())
}

proptest! {
    /// Poisson and MMPP streams are pure in `(seed, task)`: identical
    /// on replay, distinct across seeds, and independent of the other
    /// tasks in the set.
    #[test]
    fn generated_sources_are_pure_in_seed_and_task(
        picks in prop::collection::vec(0usize..PERIODS.len(), 1..4),
        seed in 0u64..1u64 << 48,
    ) {
        if let Err(msg) = purity_case(&picks, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Runs every cell of `campaign` on `threads` workers into an
/// in-memory CSV sink and returns the streamed rows.
fn campaign_csv(campaign: &Campaign, threads: usize) -> String {
    let plans = campaign.plan();
    let mut sink = CsvSink::new(Vec::new());
    campaign
        .run_range_with(&plans, 0..campaign.cell_count(), threads, &mut sink)
        .expect("in-memory CSV sink cannot fail");
    String::from_utf8(sink.into_inner()).expect("CSV is UTF-8")
}

/// The checked-in arrivals sweep and an inline grid covering Poisson
/// and every MMPP profile stream byte-identical CSV at 1/2/8 threads,
/// and the sporadic cells (feasible by construction) miss nothing.
#[test]
fn arrival_grids_are_thread_count_deterministic() {
    const INLINE_V4: &str = "\
acsched-scenario v4

taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end

processor linear50 linear kappa=50 vmin=0.3 vmax=4

arrivals poisson,mmpp:light,mmpp:bursty,mmpp:heavy
schedules wcs
policy greedy
workload paper
seeds 1 2
hyper_periods 8
synthesis quick
";
    let checked_in = Scenario::load(format!("{}/arrivals_sweep.txt", scenario_dir()))
        .expect("checked-in arrivals sweep parses");
    let inline = Scenario::from_text(INLINE_V4).expect("inline v4 grid parses");
    for (what, scenario) in [("arrivals_sweep.txt", checked_in), ("inline", inline)] {
        let campaign = scenario.to_campaign().expect("non-empty grid");
        let reference = campaign_csv(&campaign, 1);
        assert!(
            !reference.contains(",failed,"),
            "{what}: failed cells\n{reference}"
        );
        for threads in [2, 8] {
            assert_eq!(
                campaign_csv(&campaign, threads),
                reference,
                "{what}: CSV diverged at {threads} threads"
            );
        }
    }
}

/// Every sporadic cell of the checked-in sweep reports zero aperiodic
/// misses: inter-arrivals only ever stretch past the period the
/// schedule was synthesized for.
#[test]
fn sporadic_cells_of_the_sweep_miss_nothing() {
    let scenario = Scenario::load(format!("{}/arrivals_sweep.txt", scenario_dir()))
        .expect("checked-in arrivals sweep parses");
    assert!(
        scenario.arrivals.iter().any(|k| k.label() == "sporadic"),
        "the sweep declares a sporadic axis entry"
    );
    let report = scenario.to_campaign().unwrap().run();
    assert_eq!(report.failures().count(), 0, "{}", report.to_table());
    assert_eq!(report.total_misses_aperiodic(), 0, "{}", report.to_table());
}

/// The sweep's `arrivals periodic` cells are byte-identical to the same
/// grid under a v3 header: a periodic cell attaches no source and runs
/// the engine's built-in release grid, exactly as a grid without an
/// arrivals axis does.
#[test]
fn periodic_cells_of_the_sweep_match_the_v3_grid() {
    let sweep = std::fs::read_to_string(format!("{}/arrivals_sweep.txt", scenario_dir()))
        .expect("checked-in arrivals sweep reads");
    assert!(
        sweep.contains("\nacsched-scenario v4\n"),
        "the sweep is a v4 scenario"
    );
    let v3: String = sweep
        .replace("\nacsched-scenario v4\n", "\nacsched-scenario v3\n")
        .lines()
        .filter(|line| !line.starts_with("arrivals "))
        .map(|line| format!("{line}\n"))
        .collect();
    let csv_of = |text: &str| {
        let scenario = Scenario::from_text(text).expect("scenario parses");
        campaign_csv(&scenario.to_campaign().expect("non-empty grid"), 1)
    };
    let sweep_csv = csv_of(&sweep);
    let v3_csv = csv_of(&v3);
    let arrivals = common::column("arrivals");
    let periodic: Vec<&str> = sweep_csv
        .lines()
        .filter(|row| common::split_csv(row)[arrivals] == "periodic")
        .collect();
    let v3_rows: Vec<&str> = v3_csv.lines().collect();
    assert!(!periodic.is_empty(), "the sweep has periodic cells");
    assert!(
        sweep_csv.lines().count() > periodic.len(),
        "the sweep has aperiodic cells too"
    );
    assert_eq!(periodic, v3_rows, "periodic rows diverged from the v3 grid");
}
