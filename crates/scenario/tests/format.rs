//! Scenario-format acceptance: `parse → to_text → parse` fixpoint over
//! a scenario exercising every directive, materialization equivalence
//! with hand-built objects, and a malformed-input table checking that
//! every error names its line and its problem.

use acs_model::units::{Freq, Ticks};
use acs_scenario::{Scenario, TaskSetDecl};
use acs_workloads::real_life;

/// A scenario using every directive and every optional knob at least
/// once.
const FULL: &str = "\
# Fig-6-style grid plus hardware variations -- exercises the whole grammar.
acsched-scenario v1

taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 deadline=15 wcec=600 acec=200 bcec=60 c_eff=1.5
end
taskset cnc@0.1 from cnc fmax=200 ratio=0.1 util=0.7
tasksets random tasks=4 ratio=0.5 count=2 seed=2005 fmax=200

processor linear50 linear kappa=50 vmin=0.3 vmax=4
processor disc alpha k=120 vth=0.8 alpha=1.6 vmin=1 vmax=4 levels=1.5,2.5,4 overhead=0.001:1.25

schedules wcs acs unscheduled
policy greedy
policy ccrm
policy reopt horizon=8 min_rel_gain=0.02 cache=512 resolve_on_release=off resolve_at_start=on
workload paper
workload bimodal p=0.25
seeds 1 2 3
hyper_periods 50
deadline_tol_ms 0.001
synthesis default
acs_multistart on
threads 2
";

/// A `v2` scenario exercising the multicore and leakage grammar.
const FULL_V2: &str = "\
acsched-scenario v2

taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end

processor leaky linear kappa=50 vmin=0.3 vmax=4 static_power=5 idle_power=0.5
processor stepped linear kappa=50 vmin=0.3 vmax=4 levels=1,2,4 static_power=1,2,4

cores 1 2 4 partition=ffd,wfd
schedules wcs acs
policy greedy
workload paper
seeds 1 2
hyper_periods 5
";

/// A `v3` scenario exercising the scheduling-class axis on top of the
/// v2 grammar.
const FULL_V3: &str = "\
acsched-scenario v3

taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end

processor linear50 linear kappa=50 vmin=0.3 vmax=4

cores 1 2
class rm,edf
schedules wcs acs
policy greedy
workload paper
seeds 1 2
hyper_periods 5
";

/// A `v4` scenario exercising the arrival-process axis and a
/// trace-backed task set on top of the v3 grammar. Parses and
/// round-trips without the trace file existing; materialization
/// needs the file (see `trace_backed_task_set_materializes`).
const FULL_V4: &str = "\
acsched-scenario v4

taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end
taskset replay trace traces/replay.trace

processor linear50 linear kappa=50 vmin=0.3 vmax=4

class rm,edf
arrivals periodic,sporadic,mmpp:bursty
schedules wcs acs
policy greedy
workload paper
seeds 1 2
hyper_periods 5
";

/// A `v5` scenario exercising the placement axis and a precedence
/// graph on top of the v4 grammar.
const FULL_V5: &str = "\
acsched-scenario v5

taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end
taskset pipe
task stage_a period=10 wcec=200 acec=80 bcec=20
task stage_b period=10 wcec=300 acec=120 bcec=30
task stage_c period=10 wcec=250 acec=100 bcec=25
end

dag pipe
edge stage_a->stage_b
edge stage_b->stage_c
end

processor linear50 linear kappa=50 vmin=0.3 vmax=4

cores 1 2
class rm,edf
arrivals periodic,sporadic
placement partitioned,global
schedules wcs acs
policy ccrm
workload paper
seeds 1 2
hyper_periods 5
";

#[test]
fn full_scenario_round_trip_fixpoint() {
    for (text, version) in [
        (FULL, 1),
        (FULL_V2, 2),
        (FULL_V3, 3),
        (FULL_V4, 4),
        (FULL_V5, 5),
    ] {
        let first = Scenario::from_text(text).expect("full scenario parses");
        let canonical = first.to_text().expect("parsed scenarios serialize");
        let second = Scenario::from_text(&canonical).expect("canonical form parses");
        assert_eq!(first, second, "parse -> to_text -> parse is a fixpoint");
        // And the canonical form itself is stable.
        assert_eq!(canonical, second.to_text().unwrap());
        assert!(canonical.starts_with(&format!("acsched-scenario v{version}\n")));
    }
}

/// No header gates a directive: each of the five headers × each subset
/// of the seven directives later headers introduced parses to the same
/// scenario, and `to_text` writes the oldest header that covers the
/// subset, whose text parses back to the same scenario.
#[test]
fn every_directive_parses_under_every_header() {
    // (the first header whose format named the directive, its text).
    const DECLS: [(usize, &str); 7] = [
        (
            2,
            "processor leaky linear kappa=50 vmin=1 vmax=4 static_power=1\n",
        ),
        (2, "cores 2\n"),
        (3, "class edf\n"),
        (4, "arrivals sporadic\n"),
        (4, "taskset replay trace traces/replay.trace\n"),
        (5, "placement global\n"),
        (5, "dag pipe\nedge a->b\nend\n"),
    ];
    for subset in 0u32..1 << DECLS.len() {
        let mut body = String::from(
            "taskset pipe\ntask a period=10 wcec=100\ntask b period=10 wcec=200\nend\n\
             processor p linear kappa=50 vmin=1 vmax=4\n",
        );
        let mut lowest = 1;
        for (bit, (version, decl)) in DECLS.iter().enumerate() {
            if subset & (1 << bit) != 0 {
                body.push_str(decl);
                lowest = lowest.max(*version);
            }
        }
        body.push_str("policy ccrm\nworkload paper\n");
        let mut parsed = Vec::new();
        for version in 1..=5 {
            let text = format!("acsched-scenario v{version}\n{body}");
            let sc = Scenario::from_text(&text)
                .unwrap_or_else(|e| panic!("subset {subset:07b} under v{version}: {e}"));
            let canonical = sc.to_text().unwrap();
            assert!(
                canonical.starts_with(&format!("acsched-scenario v{lowest}\n")),
                "subset {subset:07b} under v{version}: expected v{lowest}, got:\n{canonical}"
            );
            assert_eq!(sc, Scenario::from_text(&canonical).unwrap());
            parsed.push(sc);
        }
        assert!(
            parsed.windows(2).all(|w| w[0] == w[1]),
            "subset {subset:07b}: the header changed the parsed scenario"
        );
    }
}

/// Every checked-in scenario under `scenarios/` keeps parsing, the
/// canonical serialization is a parse fixpoint for each, and each file
/// declares the header its canonical form starts with. The server's
/// plan-cache and checkpoint fingerprint hashes the canonical form, so
/// the last check pins every checked-in scenario's fingerprint against
/// a change in the header `to_text` picks.
#[test]
fn checked_in_scenarios_parse_and_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::from_text(&text)
            .unwrap_or_else(|e| panic!("{} no longer parses: {e}", path.display()));
        let canonical = sc.to_text().unwrap();
        assert_eq!(
            sc,
            Scenario::from_text(&canonical).unwrap(),
            "{} canonical form is not a parse fixpoint",
            path.display()
        );
        let header = text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'));
        assert_eq!(
            header,
            canonical.lines().next(),
            "{} declares a header other than its canonical one",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 6, "expected the checked-in grids, saw {checked}");
}

#[test]
fn v2_features_materialize() {
    let sc = Scenario::from_text(FULL_V2).unwrap();
    assert_eq!(sc.cores, vec![1, 2, 4]);
    assert_eq!(sc.partitioners.len(), 2);
    let cpus = sc.materialize_processors().unwrap();
    assert_eq!(cpus[0].1.static_power(), 5.0);
    assert_eq!(cpus[0].1.idle_power(), 0.5);
    // Per-level powers: accounting per level, scalar model at the
    // guaranteed minimum.
    assert_eq!(cpus[1].1.level_static_power(), Some(&[1.0, 2.0, 4.0][..]));
    assert_eq!(cpus[1].1.static_power(), 1.0);
    // The campaign grid gets the cores/partitioner axes: cores=1
    // collapses the partitioner, so greedy x {wcs,acs} x (1 + 2x2) = 10
    // cells per processor-pair... processors share the grid:
    // 2 processors x 2 schedules x 5 (cores,part) combos = 20 cells.
    let campaign = sc.to_campaign().unwrap();
    assert_eq!(campaign.cell_count(), 20);
    assert_eq!(campaign.run_count(), 40);

    // A v1 scenario hand-upgraded with a core-count axis serializes
    // under the v2 header.
    let mut v1 =
        Scenario::from_text("acsched-scenario v1\nprocessor p linear kappa=50 vmin=1 vmax=4\n")
            .unwrap();
    v1.cores = vec![2];
    let text = v1.to_text().unwrap();
    assert!(text.starts_with("acsched-scenario v2\n"), "{text}");
    assert_eq!(v1, Scenario::from_text(&text).unwrap());
}

#[test]
fn duplicate_partitioners_dedupe_preserving_order() {
    // Like seeds, schedules and core counts, repeated `partition=`
    // entries collapse to their first occurrence instead of erroring —
    // a repeated heuristic would duplicate every multicore cell.
    let sc = Scenario::from_text(
        "acsched-scenario v2\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         cores 2 partition=wfd,ffd,wfd,ffd,bfd\n",
    )
    .unwrap();
    let labels: Vec<String> = sc.partitioners.iter().map(|h| h.to_string()).collect();
    assert_eq!(labels, ["wfd", "ffd", "bfd"]);
    // Identical to declaring the unique heuristics outright, including
    // the canonical serialization.
    let clean = Scenario::from_text(
        "acsched-scenario v2\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         cores 2 partition=wfd,ffd,bfd\n",
    )
    .unwrap();
    assert_eq!(sc, clean);
    assert_eq!(sc.to_text().unwrap(), clean.to_text().unwrap());
}

#[test]
fn v3_class_axis_materializes_and_lifts_the_header() {
    use acs_runtime::SchedulingClass;
    let sc = Scenario::from_text(FULL_V3).unwrap();
    assert_eq!(
        sc.classes,
        vec![SchedulingClass::FixedPriorityRm, SchedulingClass::Edf]
    );
    // greedy x {wcs, acs} x (cores 1 + 2) x 2 classes = 8 cells.
    let campaign = sc.to_campaign().unwrap();
    assert_eq!(campaign.cell_count(), 8);
    // The class line round-trips in canonical comma form.
    let text = sc.to_text().unwrap();
    assert!(text.contains("\nclass rm,edf\n"), "{text}");

    // A v2 scenario hand-upgraded with a class axis serializes under
    // the v3 header.
    let mut v2 = Scenario::from_text(FULL_V2).unwrap();
    v2.classes = vec![SchedulingClass::Edf];
    let text = v2.to_text().unwrap();
    assert!(text.starts_with("acsched-scenario v3\n"), "{text}");
    assert_eq!(v2, Scenario::from_text(&text).unwrap());
}

#[test]
fn v4_arrivals_axis_materializes_and_lifts_the_header() {
    use acs_sim::{ArrivalKind, MmppProfile};
    let sc = Scenario::from_text(
        "acsched-scenario v4\n\
         taskset one\ntask t period=10 wcec=100\nend\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         arrivals periodic,sporadic,mmpp\n\
         schedules wcs acs\n\
         policy greedy\nworkload paper\n",
    )
    .unwrap();
    assert_eq!(
        sc.arrivals,
        vec![
            ArrivalKind::Periodic,
            ArrivalKind::Sporadic,
            ArrivalKind::Mmpp(MmppProfile::Bursty)
        ]
    );
    // greedy x {wcs, acs} x 3 arrival kinds = 6 cells.
    let campaign = sc.to_campaign().unwrap();
    assert_eq!(campaign.cell_count(), 6);
    // Bare `mmpp` canonicalizes to its preset label and the line
    // round-trips in comma form.
    let text = sc.to_text().unwrap();
    assert!(
        text.contains("\narrivals periodic,sporadic,mmpp:bursty\n"),
        "{text}"
    );
    assert_eq!(sc, Scenario::from_text(&text).unwrap());

    // A v3 scenario hand-upgraded with an arrivals axis serializes
    // under the v4 header.
    let mut v3 = Scenario::from_text(FULL_V3).unwrap();
    v3.arrivals = vec![ArrivalKind::Poisson];
    let text = v3.to_text().unwrap();
    assert!(text.starts_with("acsched-scenario v4\n"), "{text}");
    assert_eq!(v3, Scenario::from_text(&text).unwrap());
}

#[test]
fn v5_placement_and_dag_materialize_and_lift_the_header() {
    use acs_runtime::Placement;
    let sc = Scenario::from_text(
        "acsched-scenario v5\n\
         taskset pipe\n\
         task a period=10 wcec=100\n\
         task b period=10 wcec=200\n\
         end\n\
         dag pipe\nedge a->b\nend\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         cores 1 2\n\
         placement global,partitioned\n\
         schedules wcs\n\
         policy ccrm\nworkload paper\n",
    )
    .unwrap();
    assert_eq!(
        sc.placements,
        vec![Placement::Global, Placement::Partitioned]
    );
    assert_eq!(sc.dags.len(), 1);
    assert_eq!(sc.dags[0].set, "pipe");
    assert_eq!(sc.dags[0].edges, vec![("a".to_string(), "b".to_string())]);
    // The validated graph attaches to the named set at materialization.
    let sets = sc.materialize_task_sets().unwrap();
    let graph = sets[0].1.graph().expect("dag attaches to the named set");
    assert_eq!(graph.edge_count(), 1);
    // ccrm (schedule-free) x [cores=1 (placement collapses) + cores=2
    // global] = 2 cells: the DAG set skips partitioned multicore cells
    // because precedence edges cannot cross a partition.
    let campaign = sc.to_campaign().unwrap();
    assert_eq!(campaign.cell_count(), 2);
    // The canonical form carries the dag block and placement line, and
    // stays a fixpoint.
    let text = sc.to_text().unwrap();
    assert!(text.contains("\ndag pipe\nedge a->b\nend\n"), "{text}");
    assert!(text.contains("\nplacement global,partitioned\n"), "{text}");
    assert_eq!(sc, Scenario::from_text(&text).unwrap());

    // A v4 scenario hand-upgraded with a placement axis serializes
    // under the v5 header.
    let mut v4 = Scenario::from_text(FULL_V4).unwrap();
    v4.placements = vec![Placement::Global];
    let text = v4.to_text().unwrap();
    assert!(text.starts_with("acsched-scenario v5\n"), "{text}");
    assert_eq!(v4, Scenario::from_text(&text).unwrap());
}

#[test]
fn duplicate_placements_dedupe_preserving_order() {
    // Repeated entries on the `placement` line collapse to their first
    // occurrence — the documented `class`/`arrivals` behavior — instead
    // of duplicating every multicore cell of the grid.
    use acs_runtime::Placement;
    let sc = Scenario::from_text(
        "acsched-scenario v5\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         placement global,partitioned,global,partitioned\n",
    )
    .unwrap();
    assert_eq!(
        sc.placements,
        vec![Placement::Global, Placement::Partitioned]
    );
    let text = sc.to_text().unwrap();
    assert!(text.contains("\nplacement global,partitioned\n"), "{text}");
    assert_eq!(sc, Scenario::from_text(&text).unwrap());
}

#[test]
fn duplicate_classes_and_arrivals_dedupe_preserving_order() {
    // Repeated entries on `class` and `arrivals` lines collapse to
    // their first occurrence — the documented `seeds`/`schedules`
    // behavior — instead of erroring (`class`) or duplicating every
    // cell of the grid.
    let sc = Scenario::from_text(
        "acsched-scenario v4\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         class edf,rm,edf,rm\n\
         arrivals poisson,periodic,poisson\n",
    )
    .unwrap();
    use acs_runtime::SchedulingClass;
    use acs_sim::ArrivalKind;
    assert_eq!(
        sc.classes,
        vec![SchedulingClass::Edf, SchedulingClass::FixedPriorityRm]
    );
    assert_eq!(
        sc.arrivals,
        vec![ArrivalKind::Poisson, ArrivalKind::Periodic]
    );
    let text = sc.to_text().unwrap();
    assert!(text.contains("\nclass edf,rm\n"), "{text}");
    assert!(text.contains("\narrivals poisson,periodic\n"), "{text}");
    assert_eq!(sc, Scenario::from_text(&text).unwrap());
}

#[test]
fn trace_backed_task_set_materializes_from_prologue() {
    // Generate a small trace, point a v4 scenario at it, and check the
    // set comes from the prologue, the arrivals axis collapses for the
    // traced row, and `trace_paths` reports the declaration.
    let dir = std::env::temp_dir().join(format!("acs-scenario-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.trace");
    let cfg = acs_trace::GenConfig {
        profile: acs_sim::MmppProfile::Bursty,
        jobs: 200,
        seed: 7,
        tasks: 3,
    };
    acs_trace::generate(
        &cfg,
        std::io::BufWriter::new(std::fs::File::create(&path).unwrap()),
    )
    .unwrap();
    let text = format!(
        "acsched-scenario v4\n\
         taskset replay trace {}\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         arrivals periodic,poisson\n\
         schedules wcs\n\
         policy greedy\nworkload wcec\nhyper_periods 2\n",
        path.display()
    );
    let sc = Scenario::from_text(&text).unwrap();
    assert_eq!(
        sc.trace_paths(),
        vec![("replay".to_string(), path.display().to_string())]
    );
    let sets = sc.materialize_task_sets().unwrap();
    assert_eq!(sets.len(), 1);
    assert_eq!(sets[0].1.len(), 3, "set comes from the trace prologue");
    // The traced row replays its recorded stream instead of iterating
    // the two-kind arrivals axis: greedy x 1 set x 1 arrival = 1 cell.
    let campaign = sc.to_campaign().unwrap();
    assert_eq!(campaign.cell_count(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_schedules_dedupe_preserving_order() {
    // Duplicates on the `schedules` line are dropped keeping first
    // positions — the documented `seeds` behavior — instead of silently
    // duplicating every scheduled cell of the grid.
    let sc = Scenario::from_text(
        "acsched-scenario v1\n\
         taskset one\ntask t period=10 wcec=100\nend\n\
         processor p linear kappa=50 vmin=1 vmax=4\n\
         schedules acs wcs acs acs wcs\n\
         policy greedy\nworkload paper\n",
    )
    .unwrap();
    use acs_runtime::ScheduleChoice;
    assert_eq!(sc.schedules, vec![ScheduleChoice::Acs, ScheduleChoice::Wcs]);
    assert_eq!(sc.to_campaign().unwrap().cell_count(), 2);
    // The canonical form carries the deduped line and stays a fixpoint.
    let text = sc.to_text().unwrap();
    assert!(text.contains("\nschedules acs wcs\n"), "{text}");
    assert_eq!(sc, Scenario::from_text(&text).unwrap());
}

#[test]
fn full_scenario_materializes() {
    let sc = Scenario::from_text(FULL).unwrap();
    let sets = sc.materialize_task_sets().unwrap();
    // pair + cnc + 2 random = 4 grid rows.
    assert_eq!(sets.len(), 4);
    assert_eq!(sets[0].0, "pair");
    assert_eq!(sets[1].0, "cnc@0.1");
    assert_eq!(sets[2].0, "n04_r0.5_s000");
    assert_eq!(sets[3].0, "n04_r0.5_s001");
    // The named lookup resolves to the same set as the direct call.
    assert_eq!(
        sets[1].1,
        real_life("cnc", Freq::from_cycles_per_ms(200.0), 0.1, 0.7).unwrap()
    );
    // Inline tasks carry their declared fields (RM order: ctrl first).
    let pair = &sets[0].1;
    assert_eq!(pair.tasks()[0].name(), "ctrl");
    assert_eq!(pair.tasks()[1].deadline(), Ticks::new(15));
    assert_eq!(pair.tasks()[1].c_eff(), 1.5);

    let cpus = sc.materialize_processors().unwrap();
    assert_eq!(cpus.len(), 2);
    assert_eq!(cpus[0].1.f_max().as_cycles_per_ms(), 200.0);
    assert!(matches!(
        cpus[1].1.levels(),
        acs_power::VoltageLevels::Discrete(_)
    ));
    assert_eq!(cpus[1].1.overhead().time.as_ms(), 0.001);
}

#[test]
fn defaults_stay_undeclared() {
    let minimal = "\
acsched-scenario v1
taskset one
task t period=10 wcec=100
end
processor p linear kappa=50 vmin=1 vmax=4
policy greedy
workload paper
";
    let sc = Scenario::from_text(minimal).unwrap();
    assert!(sc.schedules.is_empty());
    assert!(sc.seeds.is_empty());
    assert_eq!(sc.hyper_periods, None);
    assert_eq!(sc.synthesis, None);
    assert!(!sc.acs_multistart);
    assert_eq!(sc.threads, None);
    // Fixpoint holds for the minimal form too, and nothing invents
    // defaults in the output.
    let text = sc.to_text().unwrap();
    assert_eq!(sc, Scenario::from_text(&text).unwrap());
    for absent in [
        "schedules",
        "seeds",
        "hyper_periods",
        "synthesis",
        "threads",
    ] {
        assert!(!text.contains(absent), "`{absent}` appeared in:\n{text}");
    }
    // The campaign still builds: the builder supplies its defaults.
    let campaign = sc.to_campaign().unwrap();
    assert_eq!(campaign.cell_count(), 2); // greedy x default {WCS, ACS}
}

#[test]
fn random_decl_matches_programmatic_batch() {
    let sc = Scenario::from_text(
        "acsched-scenario v1\ntasksets random tasks=3 ratio=0.1 count=2 seed=77 fmax=200\n",
    )
    .unwrap();
    assert_eq!(
        sc.task_sets,
        vec![TaskSetDecl::Random {
            tasks: 3,
            ratio: 0.1,
            count: 2,
            seed: 77,
            f_max: 200.0
        }]
    );
    let sets = sc.materialize_task_sets().unwrap();
    let direct = acs_workloads::paper_set_batch(3, 0.1, 2, 77, Freq::from_cycles_per_ms(200.0));
    assert_eq!(sets, direct, "scenario and programmatic batches agree");
}

/// The malformed-input table: every row is (broken scenario, substrings
/// the error must contain — including the line number).
#[test]
fn malformed_inputs_report_line_and_cause() {
    let table: &[(&str, &[&str])] = &[
        ("", &["empty scenario"]),
        ("acsched-scenario v6\n", &["line 1", "unsupported header"]),
        (
            "acsched-scenario v1\nfrobnicate all\n",
            &["line 2", "unknown directive `frobnicate`"],
        ),
        (
            "acsched-scenario v1\ntask t period=1 wcec=1\n",
            &["line 2", "outside a `taskset"],
        ),
        (
            "acsched-scenario v1\ntaskset a\ntask t period=1 wcec=1\n",
            &["taskset `a`", "never closed with `end`"],
        ),
        (
            "acsched-scenario v1\ntaskset a\nprocessor p linear kappa=50 vmin=1 vmax=4\n",
            &[
                "line 3",
                "inside taskset `a`",
                "expected `task ...` or `end`",
            ],
        ),
        (
            "acsched-scenario v1\ntaskset a\ntask t wcec=1\nend\n",
            &["line 3", "task `t`", "missing required key `period`"],
        ),
        (
            "acsched-scenario v1\ntaskset a\ntask t period=ten wcec=1\nend\n",
            &["line 3", "bad value for `period`", "`ten`"],
        ),
        (
            "acsched-scenario v1\ntaskset a\ntask t period=1 wcec=1 wcec=2\nend\n",
            &["line 3", "duplicate key `wcec`"],
        ),
        (
            "acsched-scenario v1\ntaskset a\ntask t period=1 wcec=1 colour=red\nend\n",
            &["line 3", "unknown key `colour`"],
        ),
        (
            "acsched-scenario v1\ntaskset x from avionics fmax=200\n",
            &[
                "taskset `x`",
                "unknown real-life set `avionics`",
                "cnc, gap",
            ],
        ),
        (
            "acsched-scenario v1\ntasksets random tasks=2 ratio=0.1 seed=1 fmax=200\n",
            &["line 2", "missing required key `count`"],
        ),
        (
            "acsched-scenario v1\nprocessor p cubic kappa=50 vmin=1 vmax=4\n",
            &["line 2", "unknown frequency model `cubic`"],
        ),
        (
            "acsched-scenario v1\nprocessor p linear kappa=50 vmin=1 vmax=4 overhead=1\n",
            &["line 2", "expected `time_ms:energy`"],
        ),
        (
            "acsched-scenario v1\nprocessor p linear kappa=50 vmin=1 vmax=4 levels=1,two\n",
            &["line 2", "bad value for `levels`", "`two`"],
        ),
        (
            "acsched-scenario v1\nschedules wcs acs dvs\n",
            &["line 2", "unknown schedule `dvs`"],
        ),
        (
            "acsched-scenario v1\npolicy lazy\n",
            &["line 2", "unknown policy `lazy`", "reopt"],
        ),
        (
            "acsched-scenario v1\npolicy greedy horizon=4\n",
            &["line 2", "policy `greedy` takes no options"],
        ),
        (
            "acsched-scenario v1\npolicy reopt resolve_at_start=maybe\n",
            &[
                "line 2",
                "bad value for `resolve_at_start`",
                "expected on/off",
            ],
        ),
        (
            "acsched-scenario v1\nworkload bimodal\n",
            &["line 2", "missing required key `p`"],
        ),
        (
            "acsched-scenario v1\nseeds 1 two 3\n",
            &["line 2", "seeds", "`two`"],
        ),
        (
            "acsched-scenario v1\nseeds 1\nseeds 2\n",
            &["line 3", "directive `seeds` declared twice"],
        ),
        (
            "acsched-scenario v1\nhyper_periods many\n",
            &["line 2", "hyper_periods", "`many`"],
        ),
        (
            "acsched-scenario v1\nhyper_periods 0\n",
            &["line 2", "hyper_periods", "positive integer"],
        ),
        (
            "acsched-scenario v1\nsynthesis sloppy\n",
            &["line 2", "synthesis", "`quick` or `default`"],
        ),
        (
            "acsched-scenario v1\nacs_multistart yes\n",
            &["line 2", "acs_multistart", "`on` or `off`"],
        ),
        (
            "acsched-scenario v1\nthreads 0\n",
            &["line 2", "threads", "positive integer"],
        ),
        // ---- multicore and leakage ----
        (
            "acsched-scenario v2\ncores\n",
            &["line 2", "cores", "at least one core count"],
        ),
        (
            "acsched-scenario v2\ncores 0\n",
            &["line 2", "cores", "`0` is not a positive core count"],
        ),
        (
            "acsched-scenario v2\ncores two\n",
            &["line 2", "cores", "`two` is not a positive core count"],
        ),
        (
            "acsched-scenario v2\ncores 2 partition=zfd\n",
            &["line 2", "cores", "unknown partition heuristic `zfd`"],
        ),
        (
            "acsched-scenario v2\ncores partition=ffd\n",
            &["line 2", "at least one core count before `partition=`"],
        ),
        (
            "acsched-scenario v2\ncores 2\ncores 4\n",
            &["line 3", "directive `cores` declared twice"],
        ),
        (
            "acsched-scenario v2\nprocessor p linear kappa=50 vmin=1 vmax=4 static_power=-1\n",
            &["line 2", "static_power must be non-negative", "-1"],
        ),
        (
            "acsched-scenario v2\nprocessor p linear kappa=50 vmin=1 vmax=4 idle_power=-0.5\n",
            &["line 2", "idle_power must be non-negative"],
        ),
        (
            "acsched-scenario v2\nprocessor p linear kappa=50 vmin=1 vmax=4 static_power=lots\n",
            &["line 2", "bad value for `static_power`", "`lots`"],
        ),
        (
            "acsched-scenario v2\nprocessor p linear kappa=50 vmin=1 vmax=4 static_power=1,2\n",
            &["line 2", "per-level static_power needs a `levels=` table"],
        ),
        (
            "acsched-scenario v2\nprocessor p linear kappa=50 vmin=1 vmax=4 \
             levels=1,2,4 static_power=1,2\n",
            &["line 2", "2 static_power entries for 3 levels"],
        ),
        // ---- scheduling classes ----
        (
            "acsched-scenario v3\nclass\n",
            &["line 2", "class", "at least one of rm, edf"],
        ),
        (
            "acsched-scenario v3\nclass dm\n",
            &["line 2", "class", "unknown scheduling class `dm`"],
        ),
        // A conflicting `class` redeclaration: the singleton rule names
        // the second line.
        (
            "acsched-scenario v3\nclass rm\nclass edf\n",
            &["line 3", "directive `class` declared twice"],
        ),
        // ---- arrival processes and traces ----
        (
            "acsched-scenario v4\narrivals\nprocessor p linear kappa=50 vmin=1 vmax=4\n",
            &[
                "line 2",
                "arrivals",
                "at least one of periodic, sporadic, poisson",
            ],
        ),
        (
            "acsched-scenario v4\narrivals uniform\nprocessor p linear kappa=50 vmin=1 vmax=4\n",
            &["line 2", "arrivals", "unknown arrival kind `uniform`"],
        ),
        (
            "acsched-scenario v4\narrivals poisson\narrivals sporadic\n\
             processor p linear kappa=50 vmin=1 vmax=4\n",
            &["line 3", "directive `arrivals` declared twice"],
        ),
        (
            "acsched-scenario v4\ntaskset t trace /no/such/file.trace\n\
             processor p linear kappa=50 vmin=1 vmax=4\n",
            &["taskset `t`", "trace `/no/such/file.trace`"],
        ),
        // ---- placement axis and precedence graphs ----
        (
            "acsched-scenario v5\nplacement\n",
            &["line 2", "placement", "at least one of partitioned, global"],
        ),
        (
            "acsched-scenario v5\nplacement clustered\n",
            &["line 2", "placement", "unknown placement `clustered`"],
        ),
        (
            "acsched-scenario v5\nplacement global\nplacement partitioned\n",
            &["line 3", "directive `placement` declared twice"],
        ),
        (
            "acsched-scenario v5\nedge a->b\n",
            &["line 2", "`edge` outside a `dag"],
        ),
        (
            "acsched-scenario v5\ndag ghost\nend\n",
            &["line 2", "dag `ghost`", "no inline `taskset` block"],
        ),
        (
            "acsched-scenario v5\ntaskset mill from cnc fmax=200\n\
             dag mill\nend\n",
            &["line 3", "dag `mill`", "inline `taskset` blocks only"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\ntask b period=10 wcec=100\nend\n\
             dag pipe\nedge a->c\nend\n",
            &["line 7", "edge `a->c`", "unknown task `c`"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\ntask b period=10 wcec=100\nend\n\
             dag pipe\nedge a->a\nend\n",
            &["line 7", "edge `a->a`", "cannot precede itself"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\ntask b period=10 wcec=100\nend\n\
             dag pipe\nedge a->b\nedge a->b\nend\n",
            &["line 8", "edge `a->b`", "duplicate edge"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\ntask b period=20 wcec=100\nend\n\
             dag pipe\nedge a->b\nend\n",
            &["line 7", "edge `a->b`", "periods differ", "10 vs 20"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\ntask b period=10 wcec=100\nend\n\
             dag pipe\nedge a->b\nedge b->a\nend\n",
            &["line 8", "edge `b->a`", "closes a cycle"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\ntask b period=10 wcec=100\nend\n\
             dag pipe\nedge a->b\nend\n\
             dag pipe\nend\n",
            &["line 9", "dag `pipe`", "declared twice"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\nend\n\
             dag pipe\nedge a b\n",
            &["line 6", "dag `pipe`", "expected `edge <pred>-><succ>`"],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\nend\n\
             dag pipe\nprocessor p linear kappa=50 vmin=1 vmax=4\n",
            &[
                "line 6",
                "inside dag `pipe`",
                "expected `edge a->b` or `end`",
            ],
        ),
        (
            "acsched-scenario v5\n\
             taskset pipe\ntask a period=10 wcec=100\nend\n\
             dag pipe\nedge a->a\n",
            &["dag `pipe`", "never closed with `end`"],
        ),
    ];
    for (input, needles) in table {
        let err = match Scenario::from_text(input) {
            Err(e) => e.to_string(),
            Ok(sc) => match sc.materialize_task_sets() {
                Err(e) => e.to_string(),
                Ok(_) => panic!("input unexpectedly accepted:\n{input}"),
            },
        };
        for needle in *needles {
            assert!(
                err.contains(needle),
                "error for:\n{input}\nwas `{err}`, missing `{needle}`"
            );
        }
    }
}

#[test]
fn unrepresentable_names_rejected_at_serialization() {
    // A programmatically built scenario whose name cannot survive the
    // whitespace-split line format must fail `to_text` loudly instead
    // of emitting text that reparses as something else.
    let mut sc =
        Scenario::from_text("acsched-scenario v1\nprocessor p linear kappa=50 vmin=1 vmax=4\n")
            .unwrap();
    sc.processors[0].name = "discrete 4".into();
    let err = sc.to_text().unwrap_err().to_string();
    assert!(err.contains("discrete 4"), "{err}");
    assert!(err.contains("not representable"), "{err}");
}

#[test]
fn grid_errors_surface_through_to_campaign() {
    // A parseable scenario whose grid is invalid: the improved
    // CampaignError names every empty axis through the ScenarioError.
    let sc = Scenario::from_text("acsched-scenario v1\npolicy greedy\nworkload paper\n").unwrap();
    let err = sc.to_campaign().unwrap_err().to_string();
    assert!(err.contains("`task_sets`"), "{err}");
    assert!(err.contains("`processors`"), "{err}");
    assert!(!err.contains("`policies`"), "{err}");
}
