//! Scheduling-class acceptance: the RM/EDF differential on equal-period
//! (per-frame) task sets, and the checked-in `scenarios/edf_vs_rm.txt`
//! grid — byte-identical at 1/2/8 threads, EDF ≡ RM on every
//! equal-period cell, and on the mixed-period set EDF at WCS meets all
//! deadlines with mean energy ≤ the RM baseline for `GreedyReclaim`.

use acsched::prelude::*;

fn scenario_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/edf_vs_rm.txt")
}

/// An equal-period (frame-based) set: every task releases together and
/// shares one absolute deadline per frame.
fn frame_set(period: u64) -> TaskSet {
    let mk = |n: &str, w: f64| {
        Task::builder(n, Ticks::new(period))
            .wcec(Cycles::from_cycles(w))
            .acec(Cycles::from_cycles(0.4 * w))
            .bcec(Cycles::from_cycles(0.1 * w))
            .build()
            .unwrap()
    };
    TaskSet::new(vec![mk("a", 1000.0), mk("b", 800.0), mk("c", 500.0)]).unwrap()
}

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .unwrap()
}

/// The differential satellite: on equal-period sets EDF and RM produce
/// identical traces, energies and preemption counts for every built-in
/// policy — per cell, in a small campaign, at 1, 2 and 8 threads.
#[test]
fn equal_period_sets_make_edf_equal_rm_for_every_policy() {
    // Direct simulator check first: traces match slice for slice.
    let set = frame_set(20);
    let cpu = cpu();
    let edf_set = set.clone().with_class(SchedulingClass::Edf);
    let wcs_rm = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
    let wcs_edf = synthesize_wcs(&edf_set, &cpu, &SynthesisOptions::quick()).unwrap();
    type MakePolicy = fn() -> Box<dyn Policy>;
    let policies: [(&str, MakePolicy); 5] = [
        ("no-dvs", || Box::new(NoDvs)),
        ("static", || Box::new(StaticSpeed)),
        ("greedy", || Box::new(GreedyReclaim)),
        ("ccrm", || Box::new(CcRm::new())),
        ("reopt", || Box::new(ReOpt::new())),
    ];
    for (name, make) in policies {
        let run = |set: &TaskSet, sched: &StaticSchedule| {
            let mut draws = TaskWorkloads::paper(set, 7);
            let mut sim = Simulator::new(set, &cpu, make()).with_options(SimOptions {
                hyper_periods: 4,
                record_trace: true,
                ..Default::default()
            });
            if make().needs_schedule() {
                sim = sim.with_schedule(sched);
            }
            sim.run(&mut draws).unwrap()
        };
        let rm = run(&set, &wcs_rm);
        let edf = run(&edf_set, &wcs_edf);
        assert_eq!(rm.report, edf.report, "{name}: reports diverge");
        assert_eq!(rm.report.deadline_misses, 0, "{name}");
        assert_eq!(
            rm.report.preemptions, edf.report.preemptions,
            "{name}: preemption counts diverge"
        );
        assert_eq!(
            rm.trace.unwrap().slices(),
            edf.trace.unwrap().slices(),
            "{name}: traces diverge"
        );
    }

    // Campaign check: one grid with both classes; every EDF cell equals
    // its RM twin, at every thread count.
    for threads in [1usize, 2, 8] {
        let report = Campaign::builder()
            .task_set("frame", frame_set(20))
            .processor("linear", cpu.clone())
            .classes([SchedulingClass::FixedPriorityRm, SchedulingClass::Edf])
            .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
            .policies([
                PolicySpec::no_dvs(),
                PolicySpec::static_speed(),
                PolicySpec::greedy(),
                PolicySpec::ccrm(),
            ])
            .workload(WorkloadSpec::Paper)
            .seeds([1, 2])
            .hyper_periods(3)
            .threads(threads)
            .build()
            .unwrap()
            .run();
        assert_eq!(report.failures().count(), 0, "{}", report.to_table());
        let (rm_cells, edf_cells): (Vec<_>, Vec<_>) = report
            .cells()
            .iter()
            .partition(|c| c.class == SchedulingClass::FixedPriorityRm);
        assert!(!rm_cells.is_empty());
        assert_eq!(rm_cells.len(), edf_cells.len());
        for (rm, edf) in rm_cells.iter().zip(&edf_cells) {
            assert_eq!(rm.schedule, edf.schedule);
            assert_eq!(rm.policy, edf.policy);
            let (a, b) = (rm.stats().unwrap(), edf.stats().unwrap());
            assert_eq!(a.mean_energy, b.mean_energy, "{rm:?} vs {edf:?}");
            assert_eq!(a.preemptions, b.preemptions, "{rm:?} vs {edf:?}");
            assert_eq!(a.deadline_misses, b.deadline_misses);
            assert_eq!(a.voltage_switches, b.voltage_switches);
        }
    }
}

/// The checked-in scenario runs byte-identically at 1, 2 and 8 threads,
/// EDF equals RM exactly on every equal-period (`frame`) cell, and on
/// the mixed-period set EDF at WCS meets all deadlines with mean energy
/// at or below the RM baseline for `GreedyReclaim`.
#[test]
fn edf_vs_rm_scenario_meets_the_acceptance_bar() {
    let scenario = Scenario::load(scenario_path()).unwrap();
    let render = |threads: usize| {
        let campaign = scenario
            .campaign_builder()
            .unwrap()
            .threads(threads)
            .build()
            .unwrap();
        let mut agg = AggregateSink::new();
        let mut csv = CsvSink::new(Vec::new());
        {
            let mut tee = Tee::new(vec![&mut agg, &mut csv]);
            campaign.run_with(&mut tee).unwrap();
        }
        (agg.into_report(), csv.into_inner())
    };
    let (report, csv1) = render(1);
    assert_eq!(report.failures().count(), 0, "{}", report.to_table());
    for threads in [2usize, 8] {
        let (_, csv_n) = render(threads);
        assert_eq!(csv1, csv_n, "CSV bytes diverged at {threads} threads");
    }
    // The class column is present in the streamed CSV.
    let text = String::from_utf8(csv1).unwrap();
    assert!(text.lines().next().unwrap().contains(",class,preemptions"));
    assert!(text.contains(",edf,"), "no EDF rows in:\n{text}");

    let find =
        |set: &str, class: SchedulingClass, sched: ScheduleChoice, policy: &str, wl: &str| {
            report
                .cells()
                .iter()
                .find(|c| {
                    c.task_set == set
                        && c.class == class
                        && c.schedule == sched
                        && c.policy == policy
                        && c.workload == wl
                })
                .unwrap_or_else(|| panic!("no cell ({set}, {class:?}, {sched:?}, {policy}, {wl})"))
        };
    // Equal-period cells: EDF equals RM exactly, cell for cell.
    for cell in report.cells().iter().filter(|c| c.task_set == "frame") {
        let twin = find(
            "frame",
            SchedulingClass::FixedPriorityRm,
            cell.schedule,
            &cell.policy,
            &cell.workload,
        );
        let (a, b) = (cell.stats().unwrap(), twin.stats().unwrap());
        assert_eq!(a.mean_energy, b.mean_energy, "{cell:?}");
        assert_eq!(a.preemptions, b.preemptions, "{cell:?}");
        assert_eq!(a.deadline_misses, 0, "{cell:?}");
    }
    // Mixed-period set, worst-case draws, WCS schedule, greedy: EDF
    // meets every deadline and does not cost more than the RM baseline.
    for wl in ["wcec", "paper-normal"] {
        let rm = find(
            "mixed",
            SchedulingClass::FixedPriorityRm,
            ScheduleChoice::Wcs,
            "greedy",
            wl,
        );
        let edf = find(
            "mixed",
            SchedulingClass::Edf,
            ScheduleChoice::Wcs,
            "greedy",
            wl,
        );
        let (r, e) = (rm.stats().unwrap(), edf.stats().unwrap());
        assert_eq!(e.deadline_misses, 0, "EDF misses deadlines on {wl}");
        assert!(
            e.mean_energy.as_units() <= r.mean_energy.as_units() + 1e-9,
            "{wl}: EDF {} above the RM baseline {}",
            e.mean_energy,
            r.mean_energy
        );
    }
    // The non-harmonic mixed set is where the class axis earns its keep:
    // under varying (paper) workloads EDF reclaims strictly more than RM.
    let rm = find(
        "mixed",
        SchedulingClass::FixedPriorityRm,
        ScheduleChoice::Wcs,
        "greedy",
        "paper-normal",
    );
    let edf = find(
        "mixed",
        SchedulingClass::Edf,
        ScheduleChoice::Wcs,
        "greedy",
        "paper-normal",
    );
    assert!(
        edf.stats().unwrap().mean_energy < rm.stats().unwrap().mean_energy,
        "expected a strict EDF reclamation gain on the mixed set"
    );
}

/// `acsched synth` exports the schedule the scenario's own cells run:
/// the set is expanded under the scenario's first class, so a `class
/// edf` copy of `edf_vs_rm.txt` exports the EDF sub-instance order of
/// the `mixed` set (periods 10/15/30), which differs from RM's.
#[test]
fn synth_exports_the_sub_instance_order_of_the_scenarios_class() {
    let text = std::fs::read_to_string(scenario_path()).unwrap();
    assert!(text.contains("\nclass rm,edf\n"), "edf_vs_rm.txt changed");
    let dir = std::env::temp_dir().join(format!("acsched-synth-class-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mixed = Scenario::from_text(&text)
        .unwrap()
        .materialize_task_sets()
        .unwrap()
        .into_iter()
        .find(|(name, _)| name == "mixed")
        .unwrap()
        .1;
    let mut orders = Vec::new();
    for class in [SchedulingClass::FixedPriorityRm, SchedulingClass::Edf] {
        let path = dir.join(format!("{class}.txt"));
        std::fs::write(
            &path,
            text.replace("\nclass rm,edf\n", &format!("\nclass {class}\n")),
        )
        .unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_acsched"))
            .arg("synth")
            .arg(&path)
            .args(["--task-set", "mixed", "--processor", "linear50"])
            .args(["--kind", "wcs"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "synth failed: {stderr}");
        assert!(
            stderr.contains(&format!("scheduling class {class}")),
            "{stderr}"
        );
        // (task, instance) columns of the export, in sub-instance order.
        let exported: Vec<(usize, u64)> = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .skip_while(|l| !l.starts_with("# sub"))
            .skip(1)
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                (cols[1].parse().unwrap(), cols[2].parse().unwrap())
            })
            .collect();
        let fps = FullyPreemptiveSchedule::expand(&mixed.clone().with_class(class)).unwrap();
        let expected: Vec<(usize, u64)> = fps
            .sub_instances()
            .iter()
            .map(|s| (s.instance.task.0, s.instance.index))
            .collect();
        assert_eq!(exported, expected, "{class} export");
        orders.push(expected);
    }
    assert_ne!(orders[0], orders[1], "RM and EDF orders coincide");
    std::fs::remove_dir_all(&dir).ok();
}
