//! Differential proof for the discrete-event engine rewrite: the event
//! engine must reproduce the legacy chunk-scan engine **bit for bit**
//! on periodic sets (see `docs/ENGINE.md` for the determinism
//! contract).
//!
//! The whole suite is gated on the `legacy-engine` cargo feature, which
//! compiles the old engine into `acs-sim` as the test oracle:
//!
//! ```text
//! cargo test --release --features legacy-engine --test engine_differential
//! ```
//!
//! Three layers of evidence:
//!
//! * **Campaign CSVs** — every checked-in scenario (`scenarios/*.txt`)
//!   is run through `acs-runtime` on both engines at 1, 2 and 8
//!   threads; the emitted CSVs must match byte for byte. (At >1 thread
//!   `solver_cache_hits` and `boundary_resolves` compare by their sum
//!   for re-optimizing cells: a shared solver cache moves a lookup
//!   between *those two counters* — never the lookups, the adoptions,
//!   the schedules or the energies — depending on thread interleaving.
//!   The 1-thread comparison is exact, counters included, with cold
//!   caches on both sides.)
//! * **Traces** — `smoke.txt` and `edf_vs_rm.txt` task sets re-run at
//!   the `Simulator` level with trace recording on: execution slices,
//!   rendered Gantt charts and preemption-displacement counts must be
//!   identical.
//! * **Randomized sets** — proptest-driven task sets across both
//!   scheduling classes and all built-in policies, compared on full
//!   `SimReport`s and traces.
//!
//! The oracle reports `events_handled == 0` and `event_queue_peak == 0`
//! (it has no event queue); the event engine must report nonzero
//! handled events. Comparisons therefore normalize exactly those two
//! fields — and pin them as an invariant first.

#![cfg(feature = "legacy-engine")]

mod common;

use acs_sim::{legacy_engine_enabled, set_legacy_engine};
use acsched::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// The legacy-engine default is process-global; every test in this
/// binary serializes on this lock so a toggled section can never leak
/// into a concurrently running comparison.
fn toggle_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

/// Runs `campaign` on the selected engine and returns the CSV body
/// (no header; `run_range_with` streams records only).
fn campaign_csv(
    campaign: &Campaign,
    plans: &acs_runtime::CampaignPlans,
    threads: usize,
    legacy: bool,
) -> String {
    set_legacy_engine(legacy);
    let mut sink = CsvSink::new(Vec::new());
    campaign
        .run_range_with(plans, 0..campaign.cell_count(), threads, &mut sink)
        .expect("in-memory CSV sink cannot fail");
    set_legacy_engine(false);
    String::from_utf8(sink.into_inner()).expect("CSV is UTF-8")
}

fn assert_rows_equal(scenario: &str, threads: usize, legacy: &str, new: &str, mask: bool) {
    let (l_rows, n_rows): (Vec<&str>, Vec<&str>) =
        (legacy.lines().collect(), new.lines().collect());
    assert_eq!(
        l_rows.len(),
        n_rows.len(),
        "{scenario} @ {threads} threads: row count diverged"
    );
    for (i, (l, n)) in l_rows.iter().zip(&n_rows).enumerate() {
        let (l, n) = if mask {
            (common::fold_cache_warmth(l), common::fold_cache_warmth(n))
        } else {
            ((*l).to_string(), (*n).to_string())
        };
        assert_eq!(
            l, n,
            "{scenario} @ {threads} threads: row {i} diverged (legacy vs event engine)"
        );
    }
}

/// The scenario-level differential: equal campaign CSVs from both
/// engines at 1/2/8 threads. One `CampaignPlans` backs every engine x
/// thread-count combination, so each expensive WCS/ACS solve runs once,
/// in the first run that needs it; the two 1-thread runs get separately
/// built campaigns so both sides start from cold solver caches and the
/// counter columns compare exactly.
fn scenario_differential(name: &str) {
    let _guard = toggle_lock().lock().unwrap();
    let scenario = Scenario::load(scenario_path(name)).expect("scenario parses");
    let build = |cache: Option<&Arc<SolverCache>>| {
        scenario
            .campaign_builder_with_cache(cache)
            .expect("campaign builder")
            .build()
            .expect("campaign builds")
    };
    let cold_legacy = build(None);
    let cold_new = build(None);
    let warm_cache = Arc::new(SolverCache::new(4096));
    let warm = build(Some(&warm_cache));
    let plans = warm.plan();

    // 1 thread, cold caches both sides: exact, counters included.
    let l1 = campaign_csv(&cold_legacy, &plans, 1, true);
    let n1 = campaign_csv(&cold_new, &plans, 1, false);
    assert_rows_equal(name, 1, &l1, &n1, false);

    // 2 and 8 threads, shared warm cache: exact but for the split of
    // cache hits vs resolves (interleaving-dependent, see module docs).
    for threads in [2usize, 8] {
        let l = campaign_csv(&warm, &plans, threads, true);
        let n = campaign_csv(&warm, &plans, threads, false);
        assert_rows_equal(name, threads, &l, &n, true);
        // The folded multi-thread rows must also agree with the exact
        // 1-thread rows — threading must not move simulation output.
        assert_rows_equal(
            name,
            threads,
            &l1.lines()
                .map(common::fold_cache_warmth)
                .collect::<Vec<_>>()
                .join("\n"),
            &n.lines()
                .map(common::fold_cache_warmth)
                .collect::<Vec<_>>()
                .join("\n"),
            false,
        );
    }
}

#[test]
fn differential_smoke() {
    scenario_differential("smoke.txt");
}

#[test]
fn differential_edf_vs_rm() {
    scenario_differential("edf_vs_rm.txt");
}

#[test]
fn differential_design_space() {
    scenario_differential("design_space.txt");
}

#[test]
fn differential_multicore_sweep() {
    scenario_differential("multicore_sweep.txt");
}

#[test]
fn differential_serve_warm() {
    scenario_differential("serve_warm.txt");
}

#[test]
fn differential_ablation_policies() {
    scenario_differential("ablation_policies.txt");
}

#[test]
fn differential_fig6a_threeway() {
    scenario_differential("fig6a_threeway.txt");
}

#[test]
fn differential_fig6a_random() {
    scenario_differential("fig6a_random.txt");
}

// ---------------------------------------------------------------------
// Simulator-level trace differential (smoke.txt / edf_vs_rm.txt sets).
// ---------------------------------------------------------------------

/// Zeroes the two event-engine-only stats so reports compare on
/// everything the legacy oracle also produces.
fn normalized(mut r: SimReport) -> SimReport {
    r.events_handled = 0;
    r.event_queue_peak = 0;
    r
}

/// Runs one (set, cpu, policy-kind) cell on both engines with trace
/// recording and asserts identical reports, slices, Gantt renderings
/// and preemption-displacement counts.
fn assert_trace_differential(set: &TaskSet, cpu: &Processor, policy_kind: usize, seed: u64) {
    assert!(
        !legacy_engine_enabled(),
        "trace differential must run with the event engine as default"
    );
    // Infeasible at f_max => no schedule, schedule-bound policy kinds
    // have nothing to compare.
    let schedule = synthesize_acs(set, cpu, &SynthesisOptions::quick()).ok();
    let options = SimOptions {
        hyper_periods: 2,
        record_trace: true,
        ..Default::default()
    };
    let run = |legacy: bool| {
        let mut draws = TaskWorkloads::paper(set, seed);
        let mut workload = |tid: TaskId, i: u64| draws.draw(tid, i);
        macro_rules! go {
            ($sim:expr) => {{
                let mut sim = $sim.with_options(options.clone());
                if legacy {
                    sim.run_legacy(&mut workload)
                } else {
                    sim.run(&mut workload)
                }
            }};
        }
        match (policy_kind, &schedule) {
            (0, _) => go!(Simulator::new(set, cpu, NoDvs)),
            (1, Some(s)) => go!(Simulator::new(set, cpu, StaticSpeed).with_schedule(s)),
            (2, Some(s)) => go!(Simulator::new(set, cpu, GreedyReclaim).with_schedule(s)),
            (3, _) => go!(Simulator::new(set, cpu, CcRm::new())),
            (4, Some(s)) => go!(Simulator::new(set, cpu, ReOpt::new()).with_schedule(s)),
            _ => return None,
        }
        .map(Some)
        .expect("simulation succeeds")
    };
    let Some(legacy) = run(true) else { return };
    let new = run(false).expect("schedule availability is engine-independent");

    // Pin the stats invariant before normalizing it away.
    assert_eq!(legacy.report.events_handled, 0, "oracle has no event queue");
    assert_eq!(legacy.report.event_queue_peak, 0);
    assert!(new.report.events_handled > 0, "event engine counts events");

    assert_eq!(
        normalized(legacy.report.clone()),
        normalized(new.report.clone()),
        "SimReport diverged (policy kind {policy_kind}, seed {seed})"
    );
    assert_eq!(
        legacy.report.preemptions, new.report.preemptions,
        "preemption-displacement counts diverged"
    );
    let (lt, nt) = (
        legacy.trace.expect("legacy trace recorded"),
        new.trace.expect("event-engine trace recorded"),
    );
    assert_eq!(lt.slices(), nt.slices(), "execution slices diverged");
    let horizon = set.hyper_period().get() as f64;
    assert_eq!(
        render_gantt(&lt, set, horizon, 120),
        render_gantt(&nt, set, horizon, 120),
        "Gantt renderings diverged"
    );
}

fn scenario_trace_differential(name: &str) {
    let _guard = toggle_lock().lock().unwrap();
    let scenario = Scenario::load(scenario_path(name)).expect("scenario parses");
    let sets = scenario.materialize_task_sets().expect("task sets");
    let cpus = scenario.materialize_processors().expect("processors");
    for (_, set) in &sets {
        for (_, cpu) in &cpus {
            for policy_kind in 0..5 {
                for seed in [7u64, 1105] {
                    assert_trace_differential(set, cpu, policy_kind, seed);
                }
            }
        }
    }
}

#[test]
fn trace_differential_smoke() {
    scenario_trace_differential("smoke.txt");
}

#[test]
fn trace_differential_edf_vs_rm() {
    scenario_trace_differential("edf_vs_rm.txt");
}

// ---------------------------------------------------------------------
// Randomized task sets via the proptest shim.
// ---------------------------------------------------------------------

/// Same bounded-lcm period pool as `tests/properties.rs`.
const PERIODS: [u64; 6] = [8, 9, 10, 12, 15, 18];

fn build_set(picks: &[(usize, f64)], total_util: f64, f_max: f64) -> TaskSet {
    let share_sum: f64 = picks.iter().map(|(_, s)| s).sum();
    let tasks: Vec<Task> = picks
        .iter()
        .enumerate()
        .map(|(i, (p_idx, share))| {
            let period = PERIODS[p_idx % PERIODS.len()];
            let util = total_util * share / share_sum;
            let wcec = (util * period as f64 * f_max).max(1.0);
            Task::builder(format!("t{i}"), Ticks::new(period))
                .wcec(Cycles::from_cycles(wcec))
                .acec(Cycles::from_cycles(wcec * 0.4))
                .bcec(Cycles::from_cycles(wcec * 0.1))
                .build()
                .unwrap()
        })
        .collect();
    TaskSet::new(tasks).unwrap()
}

/// Processor shapes that stress every accounting path the engines must
/// agree on: lossless, leaky + idle-draining, and a discrete level
/// table with transition overheads.
fn build_cpu(shape: usize) -> Processor {
    let base = || {
        Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
    };
    match shape % 3 {
        0 => base().build().unwrap(),
        1 => base().static_power(12.0).idle_power(1.5).build().unwrap(),
        _ => base()
            .discrete_levels(
                LevelTable::new(vec![
                    Volt::from_volts(1.0),
                    Volt::from_volts(2.0),
                    Volt::from_volts(3.0),
                    Volt::from_volts(4.0),
                ])
                .unwrap(),
            )
            .transition_overhead(TransitionOverhead {
                time: TimeSpan::from_ms(0.002),
                energy: Energy::from_units(1.5),
            })
            .build()
            .unwrap(),
    }
}

fn random_differential_case(
    picks: &[(usize, f64)],
    total_util: f64,
    seed: u64,
    edf: bool,
    policy_kind: usize,
    shape: usize,
) {
    let _guard = toggle_lock().lock().unwrap();
    let cpu = build_cpu(shape);
    let mut set = build_set(picks, total_util, cpu.f_max().as_cycles_per_ms());
    if edf {
        set = set.with_class(SchedulingClass::Edf);
    }
    assert_trace_differential(&set, &cpu, policy_kind, seed);
}

// ---------------------------------------------------------------------
// Batched-draw purity: randomized batch-window sizes.
// ---------------------------------------------------------------------

/// Re-chunks every engine `draw_batch` request into sub-windows whose
/// sizes cycle through a proptest-chosen list, alternating between the
/// inner source's per-draw and batched paths. Under the purity contract
/// (`acs-sim`'s `workload` module docs) this is stream-neutral: the
/// inner RNG sees the same calls in the same order no matter how the
/// window is sliced.
struct ChunkedSource<S> {
    inner: S,
    sizes: Vec<u64>,
    cursor: usize,
}

impl<S: WorkloadSource> WorkloadSource for ChunkedSource<S> {
    fn draw(&mut self, task: TaskId, instance: u64) -> Cycles {
        self.inner.draw(task, instance)
    }

    fn draw_batch(&mut self, task: TaskId, start: u64, count: u64, out: &mut Vec<Cycles>) {
        let mut done = 0;
        while done < count {
            let size = self.sizes[self.cursor % self.sizes.len()].max(1);
            self.cursor += 1;
            let n = size.min(count - done);
            if self.cursor.is_multiple_of(2) {
                self.inner.draw_batch(task, start + done, n, out);
            } else {
                for k in 0..n {
                    let c = self.inner.draw(task, start + done + k);
                    out.push(c);
                }
            }
            done += n;
        }
    }
}

/// Runs one cell three ways on the event engine — per-job closure,
/// whole-window `TaskWorkloads` batches, and randomly re-chunked
/// batches — and asserts the three `SimReport`s are byte-identical (no
/// normalization: all three runs use the same engine).
fn batched_draw_differential_case(
    picks: &[(usize, f64)],
    total_util: f64,
    seed: u64,
    sizes: &[u64],
    shape: usize,
) {
    let _guard = toggle_lock().lock().unwrap();
    assert!(
        !legacy_engine_enabled(),
        "batch differential must run with the event engine as default"
    );
    let cpu = build_cpu(shape);
    let set = build_set(picks, total_util, cpu.f_max().as_cycles_per_ms());
    let schedule = synthesize_acs(&set, &cpu, &SynthesisOptions::quick()).ok();
    let options = SimOptions {
        hyper_periods: 3,
        ..Default::default()
    };
    let run = |source: &mut dyn WorkloadSource| {
        let out = match &schedule {
            Some(s) => Simulator::new(&set, &cpu, GreedyReclaim)
                .with_schedule(s)
                .with_options(options.clone())
                .run(source),
            None => Simulator::new(&set, &cpu, NoDvs)
                .with_options(options.clone())
                .run(source),
        };
        out.expect("simulation succeeds").report
    };
    let per_job = {
        let mut draws = TaskWorkloads::paper(&set, seed);
        let mut workload = |tid: TaskId, i: u64| draws.draw(tid, i);
        run(&mut workload)
    };
    let batched = run(&mut TaskWorkloads::paper(&set, seed));
    let chunked = run(&mut ChunkedSource {
        inner: TaskWorkloads::paper(&set, seed),
        sizes: sizes.to_vec(),
        cursor: 0,
    });
    assert_eq!(
        per_job, batched,
        "whole-window batching diverged from per-job draws (seed {seed})"
    );
    assert_eq!(
        per_job, chunked,
        "re-chunked batching diverged from per-job draws (seed {seed}, sizes {sizes:?})"
    );
}

proptest! {
    /// The headline property: on arbitrary periodic sets, across both
    /// scheduling classes, every built-in policy and three processor
    /// shapes, the event engine reproduces the chunk-scan oracle's
    /// report, trace and Gantt output byte for byte.
    #[test]
    fn event_engine_matches_legacy_oracle(
        picks in prop::collection::vec((0usize..6, 0.05f64..1.0), 1..5),
        total_util in 0.2f64..0.95,
        seed in 0u64..1_000_000,
        edf in prop::bool::ANY,
        policy_kind in 0usize..5,
        shape in 0usize..3,
    ) {
        random_differential_case(&picks, total_util, seed, edf, policy_kind, shape);
    }

    /// Batched-draw purity: slicing a task's hyper-period draw window
    /// into arbitrary sub-batches (mixing per-draw and batched calls on
    /// the shared RNG) never changes the report. Pins the
    /// `WorkloadSource::draw_batch` contract the engine's hot loop
    /// relies on.
    #[test]
    fn batch_window_size_never_changes_reports(
        picks in prop::collection::vec((0usize..6, 0.05f64..1.0), 1..5),
        total_util in 0.2f64..0.9,
        seed in 0u64..1_000_000,
        sizes in prop::collection::vec(1u64..7, 1..6),
        shape in 0usize..3,
    ) {
        batched_draw_differential_case(&picks, total_util, seed, &sizes, shape);
    }
}
