//! Acceptance tests for the partitioned-multiprocessor + leakage layer:
//! the checked-in `scenarios/multicore_sweep.txt` campaign is
//! deterministic at 1/2/8 worker threads, splits per-core energy into
//! dynamic vs static vs idle, and — with `static_power > 0` — never
//! runs a core below its critical speed, under any policy.

use acsched::prelude::*;

fn sweep() -> Scenario {
    Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/multicore_sweep.txt"
    ))
    .expect("checked-in sweep parses")
}

/// The sweep covers ≥2 partitioners × ≥2 core counts × the existing
/// policies, and its reports are identical at 1, 2 and 8 threads.
#[test]
fn multicore_sweep_is_thread_count_deterministic() {
    let scenario = sweep();
    assert!(scenario.cores.len() >= 2, "≥2 core counts");
    assert!(scenario.partitioners.len() >= 2, "≥2 partitioners");
    let run = |threads: usize| {
        scenario
            .campaign_builder()
            .unwrap()
            .threads(threads)
            .build()
            .unwrap()
            .run()
    };
    let reference = run(1);
    assert_eq!(reference.failures().count(), 0, "{}", reference.to_table());
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            reference,
            "report diverged at {threads} threads"
        );
    }

    // Per-core energy splits: multicore cells carry one mean energy per
    // core summing to the machine mean, and the static (leakage) share
    // is strictly positive on this leaky processor.
    let mut multicore_cells = 0;
    for cell in reference.cells() {
        let stats = cell.stats().unwrap();
        assert_eq!(stats.per_core_mean_energy.len(), cell.cores, "{cell:?}");
        let sum: f64 = stats.per_core_mean_energy.iter().sum();
        assert!(
            (sum - stats.mean_energy.as_units()).abs() < 1e-6 * sum.max(1.0),
            "per-core energies must sum to the machine mean: {cell:?}"
        );
        assert!(
            stats.mean_static_energy.as_units() > 0.0,
            "leaky processor must report static energy: {cell:?}"
        );
        let parts = stats.mean_dynamic_energy.as_units()
            + stats.mean_static_energy.as_units()
            + stats.mean_idle_energy.as_units();
        assert!(
            (parts - stats.mean_energy.as_units()).abs() < 1e-6 * parts.max(1.0),
            "dynamic + static + idle must reconcile with the total: {cell:?}"
        );
        if cell.cores > 1 {
            multicore_cells += 1;
        }
    }
    assert!(multicore_cells > 0, "the sweep exercises multicore cells");
}

/// With `static_power > 0`, no policy ever runs a core below its
/// critical speed: every execution slice of every core, under every
/// policy of the sweep, sits at or above the critical-speed voltage.
#[test]
fn no_policy_runs_below_critical_speed() {
    let scenario = sweep();
    let sets = scenario.materialize_task_sets().unwrap();
    let cpus = scenario.materialize_processors().unwrap();
    let (_, cpu) = &cpus[0];
    assert!(cpu.static_power() > 0.0, "the sweep's processor leaks");

    let set = &sets[0].1;
    let schedule = synthesize_wcs(set, cpu, &SynthesisOptions::quick()).unwrap();
    // The floor must actually bind for the assertion to mean anything.
    let crit = cpu.critical_speed(set.tasks()[0].c_eff());
    assert!(crit > cpu.f_min(), "critical speed must exceed f_min");

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(GreedyReclaim),
        Box::new(StaticSpeed),
        Box::new(CcRm::new()),
        Box::new(NoDvs),
    ];
    for policy in policies {
        let name = policy.name().to_string();
        let needs_schedule = policy.needs_schedule();
        let mut draws = TaskWorkloads::paper(set, 11);
        let mut sim = Simulator::new(set, cpu, policy).with_options(SimOptions {
            record_trace: true,
            hyper_periods: 1,
            ..Default::default()
        });
        if needs_schedule {
            sim = sim.with_schedule(&schedule);
        }
        let out = sim.run(&mut draws).unwrap();
        assert!(out.report.all_deadlines_met(), "{name}");
        let trace = out.trace.expect("trace recorded");
        assert!(!trace.is_empty(), "{name}");
        for slice in trace.slices() {
            let v_floor = cpu
                .volt_for_speed(cpu.critical_speed(set.tasks()[slice.task.0].c_eff()))
                .unwrap();
            assert!(
                slice.voltage >= v_floor - Volt::from_volts(1e-9),
                "{name}: slice below critical speed: {slice:?}"
            );
        }
    }
}

/// Partitioner choice shows up in the energy split: best-fit packing
/// (more idle cores) versus worst-fit balancing on a platform that
/// cannot power-gate. Both run, both meet deadlines, and the machine
/// totals reconcile — the sweep's reason to exist.
#[test]
fn partitioners_trade_idle_against_dynamic_energy() {
    let scenario = sweep();
    let report = scenario
        .campaign_builder()
        .unwrap()
        .threads(2)
        .build()
        .unwrap()
        .run();
    let cell = |cores: usize, part: &str| {
        report
            .cells()
            .iter()
            .find(|c| {
                c.cores == cores
                    && c.partition == part
                    && c.policy == "greedy"
                    && c.schedule == ScheduleChoice::Wcs
            })
            .unwrap_or_else(|| panic!("no cell for cores={cores} part={part}"))
    };
    let ffd = cell(4, "ffd").stats().unwrap();
    let wfd = cell(4, "wfd").stats().unwrap();
    // FFD packs tasks onto few cores (others idle); WFD spreads them.
    // Count cores that did real (dynamic) work via per-core energies.
    let busy = |s: &CellStats| {
        s.per_core_mean_energy
            .iter()
            .filter(|e| {
                // An idle core costs exactly idle_power × horizon; busy
                // cores cost strictly more on this workload.
                **e > 2.0 * 10.0 * 40.0 + 1e-6
            })
            .count()
    };
    assert!(
        busy(ffd) <= busy(wfd),
        "ffd packs at least as tightly as wfd: {:?} vs {:?}",
        ffd.per_core_mean_energy,
        wfd.per_core_mean_energy
    );
}
