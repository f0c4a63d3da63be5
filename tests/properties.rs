//! Property-test suite over the engine (via the offline `proptest`
//! shim — deterministic per-test case generation, `PROPTEST_CASES`
//! respected):
//!
//! * any random task set with total WCS utilization ≤ 1 has zero
//!   deadline misses under EDF at WCS draws;
//! * energy accounting always reconciles — per-task dynamic + static +
//!   idle + transition overhead equals the total, and the breakdown
//!   sums exactly, for random processors including leaky and discrete
//!   ones;
//! * engine determinism — the same seed produces a byte-identical
//!   `SimReport` across two runs (including the event engine's
//!   `events_handled`/`event_queue_peak` stats);
//! * event-queue determinism — any insertion order of the same event
//!   multiset pops in `(time, kind-priority, seq)` order, where `seq`
//!   reflects insertion order among same-`(time, kind)` events.
//!
//! The `#[ignore]`d variants at the bottom re-run the same properties
//! at a larger scale; CI's nightly-style job includes them with
//! `cargo test --release -- --include-ignored` under a raised
//! `PROPTEST_CASES`.

use acsched::prelude::*;
use acsched::sim::{Event, EventKind, EventQueue};
use proptest::prelude::*;

/// Period pool with a bounded lcm (≤ 360) mixing harmonic and
/// non-harmonic relations, so EDF genuinely deviates from RM on many
/// draws without blowing up the hyper-period.
const PERIODS: [u64; 6] = [8, 9, 10, 12, 15, 18];

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0)) // f_max = 200 cyc/ms
        .build()
        .unwrap()
}

/// Builds a task set from sampled (period-index, share) pairs whose
/// worst-case utilization at `f_max` is `total_util` (shares are
/// normalized), with BCEC/ACEC at 10%/40% of WCEC.
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

/// Random processor shapes for the reconciliation property: lossless,
/// leaky, idle-draining, discrete (with and without per-level leakage),
/// and switch-overhead variants.
fn build_cpu(shape: usize, static_power: f64, idle_power: f64) -> Processor {
    let base = || {
        Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
    };
    let levels = || {
        LevelTable::new(vec![
            Volt::from_volts(1.0),
            Volt::from_volts(2.0),
            Volt::from_volts(3.0),
            Volt::from_volts(4.0),
        ])
        .unwrap()
    };
    match shape % 5 {
        0 => base().build().unwrap(),
        1 => base()
            .static_power(static_power)
            .idle_power(idle_power)
            .build()
            .unwrap(),
        2 => base()
            .discrete_levels(levels())
            .idle_power(idle_power)
            .build()
            .unwrap(),
        3 => base()
            .discrete_levels(levels())
            .level_static_power(vec![
                static_power * 0.25,
                static_power * 0.5,
                static_power * 0.75,
                static_power,
            ])
            .static_power(static_power * 0.25)
            .build()
            .unwrap(),
        _ => base()
            .transition_overhead(TransitionOverhead {
                time: TimeSpan::from_ms(0.002),
                energy: Energy::from_units(1.5),
            })
            .static_power(static_power)
            .build()
            .unwrap(),
    }
}

/// Property (a): EDF meets every deadline at WCS draws whenever the
/// worst-case utilization is ≤ 1 — the exact EDF bound. (RM offers no
/// such guarantee on non-harmonic draws, which is the point of the
/// class axis.)
fn edf_no_misses_case(picks: &[(usize, f64)], total_util: f64) -> Result<(), String> {
    let cpu = cpu();
    let set = build_set(picks, total_util, cpu.f_max().as_cycles_per_ms())
        .with_class(SchedulingClass::Edf);
    if !edf_utilization_feasible(&set, cpu.f_max()) {
        return Err(format!(
            "generator produced U > 1: {}",
            set.utilization_at(cpu.f_max())
        ));
    }
    let totals: Vec<Cycles> = set.tasks().iter().map(|t| t.wcec()).collect();
    let out = Simulator::new(&set, &cpu, NoDvs)
        .run(&mut |tid: TaskId, _: u64| totals[tid.0])
        .map_err(|e| e.to_string())?;
    if out.report.deadline_misses != 0 {
        return Err(format!(
            "EDF missed {} deadlines at U = {:.6} (worst lateness {} ms)",
            out.report.deadline_misses,
            set.utilization_at(cpu.f_max()),
            out.report.worst_lateness_ms
        ));
    }
    Ok(())
}

/// Property (b): `dynamic + static + idle == total_energy` within
/// `CYCLE_EPS`-scale dust, where dynamic is independently recomputed
/// from the per-task split plus transition-overhead energy.
fn energy_reconciles_case(
    picks: &[(usize, f64)],
    total_util: f64,
    shape: usize,
    static_power: f64,
    idle_power: f64,
    seed: u64,
) -> Result<(), String> {
    let cpu = build_cpu(shape, static_power, idle_power);
    let set = build_set(picks, total_util, cpu.f_max().as_cycles_per_ms());
    let mut draws = TaskWorkloads::paper(&set, seed);
    let out = Simulator::new(&set, &cpu, NoDvs)
        .with_options(SimOptions {
            hyper_periods: 3,
            ..Default::default()
        })
        .run(&mut draws)
        .map_err(|e| e.to_string())?;
    let r = &out.report;
    let b = r.breakdown();
    let tol = 1e-9 * r.energy.as_units().max(1.0);
    // The breakdown views reconcile (up to re-association dust: the
    // dynamic component is defined as total − static − idle)...
    if (b.total().as_units() - r.energy.as_units()).abs() > tol {
        return Err(format!(
            "breakdown total {} != energy {}",
            b.total(),
            r.energy
        ));
    }
    // ...and the dynamic component re-derives independently from the
    // per-task energies plus the per-switch overhead charge.
    let per_task: f64 = r.per_task_energy.iter().map(|e| e.as_units()).sum();
    let overhead = r.voltage_switches as f64 * cpu.overhead().energy.as_units();
    let recomputed = per_task + overhead + r.static_energy.as_units() + r.idle_energy.as_units();
    if (recomputed - r.energy.as_units()).abs() > tol {
        return Err(format!(
            "energy does not reconcile: per-task {per_task} + overhead {overhead} \
             + static {} + idle {} = {recomputed} vs total {}",
            r.static_energy.as_units(),
            r.idle_energy.as_units(),
            r.energy.as_units()
        ));
    }
    // Leakage components follow their defining integrals.
    if cpu.level_static_power().is_none() {
        let want_static = cpu.static_power() * r.busy_time.as_ms();
        if (r.static_energy.as_units() - want_static).abs() > tol {
            return Err(format!(
                "static energy {} != static_power x busy {}",
                r.static_energy.as_units(),
                want_static
            ));
        }
    }
    let want_idle = cpu.idle_power() * r.idle_time.as_ms();
    if (r.idle_energy.as_units() - want_idle).abs() > tol {
        return Err(format!(
            "idle energy {} != idle_power x idle {}",
            r.idle_energy.as_units(),
            want_idle
        ));
    }
    Ok(())
}

/// Property (c): the engine is a pure function of (set, cpu, policy,
/// seed) — two runs with the same seed produce byte-identical reports.
fn determinism_case(
    picks: &[(usize, f64)],
    total_util: f64,
    seed: u64,
    edf: bool,
) -> Result<(), String> {
    let cpu = cpu();
    let mut set = build_set(picks, total_util, cpu.f_max().as_cycles_per_ms());
    if edf {
        set = set.with_class(SchedulingClass::Edf);
    }
    let run = || -> Result<SimReport, String> {
        let mut draws = TaskWorkloads::paper(&set, seed);
        let out = Simulator::new(&set, &cpu, CcRm::new())
            .with_options(SimOptions {
                hyper_periods: 2,
                ..Default::default()
            })
            .run(&mut draws)
            .map_err(|e| e.to_string())?;
        Ok(out.report)
    };
    let (a, b) = (run()?, run()?);
    if a != b {
        return Err(format!("reports diverged:\n{a:?}\n{b:?}"));
    }
    if format!("{a:?}") != format!("{b:?}") {
        return Err("debug renderings diverged".into());
    }
    // The event engine's own stats are part of the byte-identity
    // contract — and prove the run went through the event queue.
    if a.events_handled == 0 || a.event_queue_peak == 0 {
        return Err(format!(
            "event engine reported no queue activity: handled {}, peak {}",
            a.events_handled, a.event_queue_peak
        ));
    }
    Ok(())
}

/// Property (d): the event queue is a pure function of its push
/// sequence. Popping everything always yields the stable sort of the
/// pushed events by `(time, kind-priority)` — i.e. strict
/// `(time, kind-priority, seq)` order, where same-key events keep
/// insertion order — and a second queue fed the same sequence pops
/// identically.
fn event_queue_determinism_case(events: &[(usize, usize)]) -> Result<(), String> {
    // Small pools force heavy time and (time, kind) collisions.
    const TIMES: [f64; 4] = [0.0, 1.5, 1.5 + f64::EPSILON, 7.25];
    const KINDS: [EventKind; 2] = [EventKind::Release, EventKind::ChunkWakeup];
    let pushed: Vec<Event> = events
        .iter()
        .enumerate()
        .map(|(i, &(t, k))| Event {
            time: TIMES[t % TIMES.len()],
            kind: KINDS[k % KINDS.len()],
            job: i, // position in the push sequence
        })
        .collect();
    let drain = || {
        let mut q = EventQueue::new();
        for e in &pushed {
            q.push(*e);
        }
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        (order, q.high_water(), q.popped())
    };
    let (order, high_water, popped) = drain();
    if (high_water, popped) != (pushed.len(), pushed.len()) {
        return Err(format!(
            "stats diverged: high_water {high_water}, popped {popped}, pushed {}",
            pushed.len()
        ));
    }
    // Stable sort by (time, kind) is the spec: job carries the push
    // position, so stability pins same-key events to insertion order.
    let mut expected = pushed.clone();
    expected.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.kind.cmp(&b.kind)));
    if order != expected {
        return Err(format!(
            "pop order diverged:\n{order:?}\nvs stable sort\n{expected:?}"
        ));
    }
    // And the queue is reproducible: same pushes, same pops.
    if order != drain().0 {
        return Err("two identically fed queues popped differently".into());
    }
    Ok(())
}

proptest! {
    #[test]
    fn edf_meets_all_deadlines_at_or_below_utilization_one(
        picks in prop::collection::vec((0usize..6, 0.05f64..1.0), 2..6),
        total_util in 0.3f64..1.0,
    ) {
        if let Err(msg) = edf_no_misses_case(&picks, total_util) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn energy_accounting_reconciles(
        picks in prop::collection::vec((0usize..6, 0.05f64..1.0), 1..5),
        total_util in 0.2f64..0.9,
        shape in 0usize..5,
        static_power in 0.0f64..30.0,
        idle_power in 0.0f64..5.0,
        seed in 0u64..1_000_000,
    ) {
        if let Err(msg) =
            energy_reconciles_case(&picks, total_util, shape, static_power, idle_power, seed)
        {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_reports(
        picks in prop::collection::vec((0usize..6, 0.05f64..1.0), 1..5),
        total_util in 0.2f64..0.95,
        seed in 0u64..1_000_000,
        edf in prop::bool::ANY,
    ) {
        if let Err(msg) = determinism_case(&picks, total_util, seed, edf) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn event_queue_pops_in_time_priority_seq_order(
        events in prop::collection::vec((0usize..4, 0usize..2), 0..64),
    ) {
        if let Err(msg) = event_queue_determinism_case(&events) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    // Nightly-scale variants: bigger sets, the full utilization range up
    // to the EDF bound. Kept `#[ignore]`d for the default run; CI's
    // property-suite job includes them with a raised `PROPTEST_CASES`.
    #[test]
    #[ignore = "nightly-scale property suite (run with --include-ignored)"]
    fn edf_bound_holds_on_larger_sets(
        picks in prop::collection::vec((0usize..6, 0.02f64..1.0), 2..10),
        total_util in 0.5f64..1.0,
    ) {
        if let Err(msg) = edf_no_misses_case(&picks, total_util) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    #[ignore = "nightly-scale property suite (run with --include-ignored)"]
    fn energy_reconciles_on_larger_sets(
        picks in prop::collection::vec((0usize..6, 0.02f64..1.0), 2..10),
        total_util in 0.2f64..0.95,
        shape in 0usize..5,
        static_power in 0.0f64..100.0,
        idle_power in 0.0f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        if let Err(msg) =
            energy_reconciles_case(&picks, total_util, shape, static_power, idle_power, seed)
        {
            prop_assert!(false, "{}", msg);
        }
    }
}
