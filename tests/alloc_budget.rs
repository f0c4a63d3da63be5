//! Allocation-budget regression tests: the engine's steady-state loop
//! must be **allocation-free** (docs/PERF.md).
//!
//! A counting `#[global_allocator]` wraps the system allocator; each
//! test warms the engine for two hyper-periods (the arena fills:
//! `current` + `spare` [`HpState`]s exist and every backing buffer has
//! reached its high-water capacity), then enables counting and runs
//! further hyper-periods. Zero allocations per job — not "few" — is the
//! pinned contract: any new `Vec::new`/`clone`/`format!` on the hot
//! path fails this suite before it can regress the benchmarks.
//!
//! **Only the measuring thread counts.** Counting is switched on per
//! thread (a `const`-initialised thread-local flag the allocator reads),
//! so allocations by the harness's own threads — printing results,
//! spawning the next test — never reach the count. The engine under test
//! runs on the thread that switched counting on, so the count is exact
//! under the parallel harness too. The tests still serialize on a mutex
//! because they share the one counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use acs_core::{synthesize_wcs, SynthesisOptions};
use acs_model::units::{Cycles, Freq, Ticks, Volt};
use acs_model::{Task, TaskGraph, TaskId, TaskSet};
use acs_power::{FreqModel, Processor};
use acs_sim::policy::{DispatchContext, Policy, SolverContext};
use acs_sim::{NoDvs, SimOptions, Simulator, StaticSpeed};

/// System allocator with a per-thread switchable allocation counter.
/// Deallocations are not counted: freeing retired buffers is fine,
/// *acquiring* new ones in steady state is the regression.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count. `const`-initialised and
    /// without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a new acquisition in disguise.
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the tests of this binary: they share the one counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` on this thread with counting enabled and returns the exact
/// number of allocation acquisitions (alloc/alloc_zeroed/realloc) this
/// thread performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Ordering::SeqCst), r)
}

fn set() -> TaskSet {
    let mk = |n: &str, p: u64, w: f64| {
        Task::builder(n, Ticks::new(p))
            .wcec(Cycles::from_cycles(w))
            .acec(Cycles::from_cycles(0.5 * w))
            .bcec(Cycles::from_cycles(0.1 * w))
            .build()
            .unwrap()
    };
    TaskSet::new(vec![
        mk("t1", 10, 400.0),
        mk("t2", 20, 900.0),
        mk("t3", 20, 600.0),
    ])
    .unwrap()
}

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.5))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

/// Steps `run` until its clock reaches `until_ms` (or it finishes).
fn step_until(run: &mut acs_sim::SteppedRun<'_, '_, '_>, until_ms: f64) {
    while run.clock_ms().is_some_and(|t| t < until_ms) {
        run.step().unwrap();
    }
}

/// The deterministic, allocation-free per-job workload used throughout:
/// a pure function of `(task, instance)` spanning the BCEC–WCEC range.
fn draw(task: TaskId, instance: u64) -> Cycles {
    Cycles::from_cycles(60.0 + ((task.0 as u64 * 131 + instance * 37) % 300) as f64)
}

#[test]
fn steady_state_run_allocates_nothing_without_schedule() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let set = set();
    let cpu = cpu();
    let hyper = set.hyper_period().get() as f64;
    let jobs_per_hyper = set.total_instances();
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, NoDvs).with_options(SimOptions {
        hyper_periods: 6,
        ..Default::default()
    });
    let mut run = sim.stepped(&mut workload).unwrap();
    // Warm-up: two full hyper-periods fill the engine arena (`current`
    // plus retired `spare` state, all buffers at capacity).
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    assert_eq!(
        allocs,
        0,
        "steady-state engine loop allocated {allocs} times over \
         {} jobs (3 hyper-periods) — the arena leaked a hot-path site",
        3 * jobs_per_hyper
    );
    run.finish().unwrap();
}

#[test]
fn steady_state_run_allocates_nothing_with_schedule() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let set = set();
    let cpu = cpu();
    let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
    let hyper = set.hyper_period().get() as f64;
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, StaticSpeed)
        .with_schedule(&schedule)
        .with_options(SimOptions {
            hyper_periods: 6,
            ..Default::default()
        });
    let mut run = sim.stepped(&mut workload).unwrap();
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    assert_eq!(
        allocs, 0,
        "schedule-driven steady state allocated {allocs} times"
    );
    let out = run.finish().unwrap();
    assert_eq!(out.report.deadline_misses, 0);
}

/// A policy that requests the per-boundary [`SolverContext`] snapshot
/// (like `ReOpt` does) but performs no solving: isolates the *engine's*
/// boundary cost — the `InstanceProgress` arena — from the policy's.
#[derive(Default)]
struct BoundaryProbe {
    boundaries: usize,
    jobs_seen: usize,
}

impl Policy for BoundaryProbe {
    fn name(&self) -> &str {
        "boundary-probe"
    }
    fn wants_boundaries(&self) -> bool {
        true
    }
    fn on_boundary(&mut self, ctx: &SolverContext<'_>) {
        self.boundaries += 1;
        self.jobs_seen = self.jobs_seen.max(ctx.progress.len());
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        ctx.cpu.f_max()
    }
}

#[test]
fn boundary_snapshots_stay_within_zero_alloc_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let set = set();
    let cpu = cpu();
    let hyper = set.hyper_period().get() as f64;
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, BoundaryProbe::default()).with_options(SimOptions {
        hyper_periods: 6,
        ..Default::default()
    });
    let mut run = sim.stepped(&mut workload).unwrap();
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    // The fixed per-boundary budget is zero: the snapshot lives in the
    // reused `HpState::progress` arena. Every hyper-period fires
    // (1 start + jobs releases + jobs completions) boundaries, so any
    // per-boundary allocation would show up many times over.
    assert_eq!(
        allocs, 0,
        "boundary snapshot path allocated {allocs} times in steady state"
    );
    run.finish().unwrap();
}

/// `scenarios/dag_global.txt`'s precedence diamond (src -> {mid_a,
/// mid_b} -> sink, equal periods, constrained deadlines).
fn diamond() -> TaskSet {
    let mk = |n: &str, d: u64, w: f64| {
        Task::builder(n, Ticks::new(20))
            .deadline(Ticks::new(d))
            .wcec(Cycles::from_cycles(w))
            .acec(Cycles::from_cycles(0.4 * w))
            .bcec(Cycles::from_cycles(0.1 * w))
            .build()
            .unwrap()
    };
    let set = TaskSet::new(vec![
        mk("src", 8, 500.0),
        mk("mid_a", 14, 400.0),
        mk("mid_b", 14, 300.0),
        mk("sink", 20, 600.0),
    ])
    .unwrap();
    let edges = [
        ("src", "mid_a"),
        ("src", "mid_b"),
        ("mid_a", "sink"),
        ("mid_b", "sink"),
    ];
    let graph = TaskGraph::new(&set, edges).unwrap();
    set.with_graph(graph)
}

/// Global dispatch shares the arena: selection, sticky placement,
/// per-core slices and the predecessor gate reuse their buffers, so a
/// warm 2-core run allocates nothing either.
#[test]
fn global_dispatch_allocates_nothing_on_two_cores() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let set = diamond();
    let cpu = cpu();
    let hyper = set.hyper_period().get() as f64;
    let mut workload = |t: TaskId, i: u64| draw(t, i);
    let mut sim = Simulator::new(&set, &cpu, NoDvs)
        .with_cores(2)
        .with_options(SimOptions {
            hyper_periods: 6,
            ..Default::default()
        });
    let mut run = sim.stepped(&mut workload).unwrap();
    step_until(&mut run, 2.0 * hyper);
    let (allocs, ()) = count_allocs(|| step_until(&mut run, 5.0 * hyper));
    assert_eq!(
        allocs, 0,
        "2-core global steady state allocated {allocs} times"
    );
    let out = run.finish().unwrap();
    assert_eq!(out.cores.len(), 2);
    assert_eq!(out.report.deadline_misses, 0);
}
