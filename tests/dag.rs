//! Property suite for precedence-constrained task graphs (via the
//! offline `proptest` shim — deterministic per-test case generation,
//! `PROPTEST_CASES` respected):
//!
//! * **precedence safety** — on random DAGs (1–6 tasks, edge
//!   probability 0.3 over ordered same-period pairs), no job ever
//!   executes before its same-instance predecessors have completed;
//!   checked against the recorded `ExecutionTrace` of both the
//!   single-core engine and 2-core global dispatch, under RM and EDF;
//! * **cycle rejection** — any ring of precedence edges is rejected at
//!   construction, and the error names an edge of the cycle;
//! * **determinism** — the same seed produces byte-identical reports
//!   and traces on DAG sets, single-core and global.
//!
//! CI's `property-suite` job runs this binary at `PROPTEST_CASES=256`.

use acsched::prelude::*;
use acsched::sim::RunOutput;
use proptest::prelude::*;
use std::collections::HashMap;

fn cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).unwrap())
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0)) // f_max = 200 cyc/ms
        .build()
        .unwrap()
}

/// Builds an equal-or-harmonic-period task set carrying a random DAG.
///
/// Tasks are split into two period groups (10 ms and 20 ms) by
/// `group_bits`; candidate edges are the ordered pairs `i < j` *within*
/// a group (precedence requires equal periods), included when the
/// matching `edge_bits` draw falls below 0.3. Ordered pairs keep the
/// construction acyclic, so `TaskGraph::new` must always accept it.
fn build_dag_set(
    picks: &[(bool, f64)],
    edge_bits: &[f64],
    total_util: f64,
    class: SchedulingClass,
) -> (TaskSet, Vec<(TaskId, TaskId)>) {
    let f_max = cpu().f_max().as_cycles_per_ms();
    let share_sum: f64 = picks.iter().map(|(_, s)| s).sum();
    let tasks: Vec<Task> = picks
        .iter()
        .enumerate()
        .map(|(i, (fast, share))| {
            let period: u64 = if *fast { 10 } else { 20 };
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
    let set = TaskSet::new(tasks).unwrap().with_class(class);

    let n = picks.len();
    let mut edges: Vec<(String, String)> = Vec::new();
    let mut bit = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let draw = edge_bits[bit % edge_bits.len()];
            bit += 1;
            if picks[i].0 == picks[j].0 && draw < 0.3 {
                edges.push((format!("t{i}"), format!("t{j}")));
            }
        }
    }
    let graph = TaskGraph::new(&set, edges.iter().map(|(a, b)| (a, b)))
        .expect("ordered same-period pairs are always a valid DAG");
    let edge_ids = graph.edges().to_vec();
    (set.with_graph(graph), edge_ids)
}

/// `(first start, last end)` of every `(task, instance)` job appearing
/// in the traces (global runs contribute one trace per core).
fn job_spans(traces: &[&ExecutionTrace]) -> HashMap<(usize, u64), (f64, f64)> {
    let mut spans: HashMap<(usize, u64), (f64, f64)> = HashMap::new();
    for trace in traces {
        for s in trace.slices() {
            let e = spans
                .entry((s.task.0, s.instance))
                .or_insert((f64::INFINITY, f64::NEG_INFINITY));
            e.0 = e.0.min(s.start.as_ms());
            e.1 = e.1.max(s.end.as_ms());
        }
    }
    spans
}

/// The per-core traces of a multi-core run.
fn core_traces(out: &RunOutput) -> Vec<&ExecutionTrace> {
    out.cores
        .iter()
        .map(|c| c.trace.as_ref().expect("per-core traces recorded"))
        .collect()
}

/// The precedence invariant: for every edge `a -> b` and every instance
/// `k` of `b` that executed inside the recorded window, all of `a`'s
/// instance-`k` work finished first. Returns the number of (edge,
/// instance) pairs actually checked so callers can reject vacuity.
fn assert_precedence(ctx: &str, traces: &[&ExecutionTrace], edges: &[(TaskId, TaskId)]) -> usize {
    let spans = job_spans(traces);
    let mut checked = 0usize;
    for &(a, b) in edges {
        for (&(task, inst), &(start, _)) in &spans {
            if task != b.0 {
                continue;
            }
            let (_, pred_end) = spans.get(&(a.0, inst)).unwrap_or_else(|| {
                panic!(
                    "{ctx}: job t{}#{inst} executed but its predecessor \
                     t{}#{inst} never appears in the trace",
                    b.0, a.0
                )
            });
            assert!(
                start >= pred_end - 1e-6,
                "{ctx}: job t{}#{inst} started at {start} ms before its \
                 predecessor t{}#{inst} completed at {pred_end} ms",
                b.0,
                a.0
            );
            checked += 1;
        }
    }
    checked
}

fn precedence_case(
    picks: &[(bool, f64)],
    edge_bits: &[f64],
    total_util: f64,
    seed: u64,
    edf: bool,
    ccrm: bool,
) {
    let class = if edf {
        SchedulingClass::Edf
    } else {
        SchedulingClass::FixedPriorityRm
    };
    let (set, edges) = build_dag_set(picks, edge_bits, total_util, class);
    let cpu = cpu();
    let options = SimOptions {
        hyper_periods: 2,
        record_trace: true,
        ..Default::default()
    };

    // Single-core engine (the PredecessorGate path).
    let mut draws = TaskWorkloads::paper(&set, seed);
    let run = |policy: Box<dyn Policy>, draws: &mut TaskWorkloads| {
        Simulator::new(&set, &cpu, policy)
            .with_options(options.clone())
            .run(draws)
            .expect("schedule-free simulation succeeds")
    };
    let policy: Box<dyn Policy> = if ccrm {
        Box::new(CcRm::new())
    } else {
        Box::new(NoDvs)
    };
    let single = run(policy, &mut draws);
    let trace = single.trace.as_ref().expect("trace recorded");
    let single_checked = assert_precedence("single-core", &[trace], &edges);
    assert!(
        single.report.jobs_completed > 0,
        "the run must execute something"
    );
    // Every first-hyper-period job appears in the trace, so an edge-ful
    // graph always yields real checks.
    if !edges.is_empty() {
        assert!(single_checked > 0, "precedence property ran vacuously");
    }

    // 2-core global dispatch (the shared-ready-queue path).
    let mut draws = TaskWorkloads::paper(&set, seed);
    let global = Simulator::new(&set, &cpu, NoDvs)
        .with_cores(2)
        .with_options(options)
        .run(&mut draws)
        .expect("global dispatch succeeds");
    let refs = core_traces(&global);
    let global_checked = assert_precedence("global 2-core", &refs, &edges);
    if !edges.is_empty() {
        assert!(
            global_checked > 0,
            "global precedence property ran vacuously"
        );
    }
}

proptest! {
    /// The headline property: random DAGs never execute a job before
    /// its same-instance predecessors complete — on either engine path,
    /// under both scheduling classes.
    #[test]
    fn no_job_starts_before_its_predecessors_complete(
        picks in prop::collection::vec((prop::bool::ANY, 0.05f64..1.0), 1..7),
        edge_bits in prop::collection::vec(0.0f64..1.0, 15),
        total_util in 0.2f64..0.8,
        seed in 0u64..1_000_000,
        edf in prop::bool::ANY,
        ccrm in prop::bool::ANY,
    ) {
        precedence_case(&picks, &edge_bits, total_util, seed, edf, ccrm);
    }

    /// Any ring of precedence edges is rejected at construction, and
    /// the error names one of the ring's edges.
    #[test]
    fn cycles_are_rejected_naming_an_edge(
        n in 2usize..7,
        seed in 0u64..1_000_000,
    ) {
        let picks: Vec<(bool, f64)> = (0..n).map(|_| (true, 1.0)).collect();
        let (set, _) = build_dag_set(&picks, &[1.0], 0.5, SchedulingClass::FixedPriorityRm);
        let ring: Vec<(String, String)> = (0..n)
            .map(|i| (format!("t{i}"), format!("t{}", (i + 1) % n)))
            .collect();
        // Rotate the declaration order by the seed: the detector's
        // answer must stay an edge of the ring regardless.
        let rot = (seed as usize) % n;
        let rotated: Vec<_> = ring[rot..].iter().chain(&ring[..rot]).cloned().collect();
        let err = TaskGraph::new(&set, rotated.iter().map(|(a, b)| (a, b)))
            .expect_err("a ring must be rejected");
        let msg = err.to_string();
        prop_assert!(msg.contains("cycle"), "not a cycle error: {msg}");
        prop_assert!(
            ring.iter().any(|(a, b)| msg.contains(&format!("{a}->{b}"))),
            "error must name a ring edge: {msg}"
        );
    }

    /// Same seed, same DAG set: byte-identical reports and traces, on
    /// the single-core engine (including the event-queue stats) and on
    /// 2-core global dispatch.
    #[test]
    fn same_seed_dag_runs_are_byte_identical(
        picks in prop::collection::vec((prop::bool::ANY, 0.05f64..1.0), 1..7),
        edge_bits in prop::collection::vec(0.0f64..1.0, 15),
        total_util in 0.2f64..0.8,
        seed in 0u64..1_000_000,
        edf in prop::bool::ANY,
    ) {
        let class = if edf { SchedulingClass::Edf } else { SchedulingClass::FixedPriorityRm };
        let (set, _) = build_dag_set(&picks, &edge_bits, total_util, class);
        let cpu = cpu();
        let options = SimOptions {
            hyper_periods: 2,
            record_trace: true,
            ..Default::default()
        };
        let single = || {
            let mut draws = TaskWorkloads::paper(&set, seed);
            Simulator::new(&set, &cpu, CcRm::new())
                .with_options(options.clone())
                .run(&mut draws)
                .expect("simulation succeeds")
        };
        let (a, b) = (single(), single());
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.trace, b.trace);

        let global = || {
            let mut draws = TaskWorkloads::paper(&set, seed);
            Simulator::new(&set, &cpu, NoDvs)
                .with_cores(2)
                .with_options(options.clone())
                .run(&mut draws)
                .expect("global dispatch succeeds")
        };
        let (a, b) = (global(), global());
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.cores, b.cores);
    }
}

/// Deterministic anchor: the checked-in `diamond` set (src before
/// mid_a/mid_b before sink, equal periods) respects its edges on every
/// instance, in both classes, single-core and global.
#[test]
fn diamond_scenario_respects_precedence_everywhere() {
    let scenario = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/dag_global.txt"
    ))
    .expect("scenario parses");
    let sets = scenario.materialize_task_sets().expect("task sets");
    let (_, diamond) = sets
        .iter()
        .find(|(name, _)| name == "diamond")
        .expect("dag_global.txt declares `diamond`");
    let graph = diamond.graph().expect("diamond carries a graph");
    assert_eq!(graph.edge_count(), 4);
    let edges = graph.edges().to_vec();
    let cpu = cpu();
    for class in [SchedulingClass::FixedPriorityRm, SchedulingClass::Edf] {
        let set = diamond.clone().with_class(class);
        let options = SimOptions {
            hyper_periods: 3,
            record_trace: true,
            ..Default::default()
        };
        let mut draws = TaskWorkloads::paper(&set, 42);
        let single = Simulator::new(&set, &cpu, NoDvs)
            .with_options(options.clone())
            .run(&mut draws)
            .expect("single-core run succeeds");
        assert!(single.report.all_deadlines_met(), "{class:?} single-core");
        let checked = assert_precedence(
            "diamond single-core",
            &[single.trace.as_ref().unwrap()],
            &edges,
        );
        assert!(checked >= edges.len(), "every edge checked at least once");

        let mut draws = TaskWorkloads::paper(&set, 42);
        let global = Simulator::new(&set, &cpu, NoDvs)
            .with_cores(2)
            .with_options(options)
            .run(&mut draws)
            .expect("global run succeeds");
        assert!(global.report.all_deadlines_met(), "{class:?} global");
        let refs = core_traces(&global);
        let checked = assert_precedence("diamond global", &refs, &edges);
        assert!(checked >= edges.len(), "every edge checked at least once");
    }
}
