//! Hot-path allocation and memory statistics for the bench trajectory
//! (`scripts/bench-trajectory.sh`), printed as `key value` lines:
//!
//! * `allocs_per_job` — allocator acquisitions per job in the engine's
//!   steady state (two warm-up hyper-periods, then three counted ones).
//!   The arena design pins this at exactly `0.000` (see docs/PERF.md
//!   and tests/alloc_budget.rs); the bench records it so a regression
//!   shows up in the `BENCH_<n>.json` series too.
//! * `peak_rss_mb` — the process's peak resident set (`VmHWM` from
//!   /proc/self/status) after running the scenario given as the first
//!   argument in-process (the same campaign the sweep metric times).
//!   Omitted on platforms without /proc.
//!
//! Usage: `hotpath_stats [scenario.txt]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use acs_core::{synthesize_wcs, SynthesisOptions};
use acs_model::units::{Cycles, Ticks, Volt};
use acs_model::{Task, TaskId, TaskSet};
use acs_power::{FreqModel, Processor};
use acs_scenario::Scenario;
use acs_sim::{SimOptions, Simulator, StaticSpeed};

/// System allocator with a switchable acquisition counter — the same
/// scheme tests/alloc_budget.rs pins to zero.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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

/// Steady-state allocations per job on the schedule-driven engine path.
fn allocs_per_job() -> f64 {
    let set = set();
    let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.5))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap();
    let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
    let hyper = set.hyper_period().get() as f64;
    let jobs = 3 * set.total_instances();
    let mut workload =
        |t: TaskId, i: u64| Cycles::from_cycles(60.0 + ((t.0 as u64 * 131 + i * 37) % 300) as f64);
    let mut sim = Simulator::new(&set, &cpu, StaticSpeed)
        .with_schedule(&schedule)
        .with_options(SimOptions {
            hyper_periods: 6,
            ..Default::default()
        });
    let mut run = sim.stepped(&mut workload).unwrap();
    let step_until = |run: &mut acs_sim::SteppedRun<'_, '_, '_>, until: f64| {
        while run.clock_ms().is_some_and(|t| t < until) {
            run.step().unwrap();
        }
    };
    step_until(&mut run, 2.0 * hyper);
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    step_until(&mut run, 5.0 * hyper);
    ENABLED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    run.finish().unwrap();
    allocs as f64 / jobs as f64
}

/// `VmHWM` from /proc/self/status, in MiB (`None` off Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    println!("allocs_per_job {:.3}", allocs_per_job());
    if let Some(path) = std::env::args().nth(1) {
        let report = Scenario::load(&path)
            .unwrap_or_else(|e| panic!("loading {path}: {e}"))
            .to_campaign()
            .unwrap_or_else(|e| panic!("materializing {path}: {e}"))
            .run();
        assert_eq!(report.failures().count(), 0, "scenario cells failed");
        if let Some(mb) = peak_rss_mb() {
            println!("peak_rss_mb {mb:.1}");
        }
    }
}
