//! Rounds, metrics and the traced breakdown.
//!
//! A *round* is one pass over a workload's scenarios: each is run
//! in-process (`Mode::Local`) or submitted over loopback
//! (`Mode::Served`). The untraced run repeats rounds for the measuring
//! time and reports the end-to-end metrics; the traced run repeats
//! rounds with every layer call timed from here and reports the
//! per-layer metrics.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use acs_core::{synthesize_acs, synthesize_acs_warm, synthesize_wcs, SynthesisOptions};
use acs_preempt::FullyPreemptiveSchedule;
use acs_runtime::CellReport;
use acs_scenario::{Scenario, SynthProfile};

use crate::exec::{self, Client, Server, Submission};
use crate::gate::{self, Table};
use crate::workloads::{Mode, Workload};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a run reports: counts for the result line plus its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context printed beside the result (sample counts), not metrics.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
        });
    }

    /// Records a failed correctness check; the run reports
    /// `correct: false`.
    fn fail(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

pub struct Ctx<'a> {
    /// Round 0's inputs: the mode, labels and probes come from here.
    pub workload: &'a Workload,
    /// The inputs of round `k`. In-process workloads draw fresh
    /// scenarios each round from the seed, so one run averages over
    /// many generated sets; served workloads resubmit round 0's.
    pub round: &'a dyn Fn(u64) -> Workload,
    pub threads: usize,
    pub seconds: f64,
    pub work: &'a Path,
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One untraced round's measurements.
#[derive(Default)]
struct Round {
    wall: Duration,
    setup: Duration,
    /// Plan start (or submit) to last record, summed over the scenarios.
    busy: Duration,
    /// Plan start (or submit) to the first record of the dominant
    /// scenario.
    first_record: Duration,
    /// One per submission (served) or one per round (in-process).
    latencies: Vec<Duration>,
    cells: usize,
    failed: usize,
    jobs: f64,
    /// In-process CSVs, one per scenario.
    csvs: Vec<String>,
    tables: Vec<Table>,
    submissions: Vec<Submission>,
}

fn jobs_of(t: &Table) -> f64 {
    t.rows
        .iter()
        .map(|r| t.num(r, "jobs_completed").unwrap_or(0.0))
        .sum()
}

fn local_round(ctx: &Ctx, k: u64) -> Result<Round, String> {
    let w = &(ctx.round)(k);
    let start = Instant::now();
    let mut r = Round::default();
    for (i, input) in w.inputs.iter().enumerate() {
        let run = exec::run_local(&input.text, ctx.threads)?;
        if i == 0 {
            r.first_record = run.first_record;
        }
        r.setup += run.setup;
        r.busy += run.plan_run;
        r.cells += run.cells.len();
        r.failed += run.cells.iter().filter(|c| c.outcome.is_err()).count();
        let table = gate::check_csv(&run.csv, run.cells.len(), w.trace_jobs)
            .and_then(|t| gate::check_records(&run.cells).map(|()| t))
            .map_err(|e| format!("{}: {e}", input.label))?;
        r.jobs += jobs_of(&table);
        r.tables.push(table);
        r.csvs.push(run.csv);
    }
    r.wall = start.elapsed();
    r.latencies.push(r.wall);
    Ok(r)
}

fn served_round(ctx: &Ctx, client: &mut Client, refs: &[String]) -> Result<Round, String> {
    let w = ctx.workload;
    let start = Instant::now();
    let mut r = Round::default();
    for (i, (input, reference)) in w.inputs.iter().zip(refs).enumerate() {
        let sub = client.submit(&input.text, CHUNK)?;
        if i == 0 {
            r.first_record = sub.to_first_record;
        }
        r.busy += sub.latency;
        r.latencies.push(sub.latency);
        r.cells += sub.records;
        r.failed += sub.failed;
        let table = gate::check_csv(&sub.csv, sub.records, w.trace_jobs)
            .and_then(|t| {
                gate::same_results("served vs in-process", &sub.csv, reference).map(|()| t)
            })
            .map_err(|e| format!("{}: {e}", input.label))?;
        r.jobs += jobs_of(&table);
        r.tables.push(table);
        // Checked against the reference; only the timings are kept.
        r.submissions.push(Submission {
            csv: String::new(),
            ..sub
        });
    }
    r.wall = start.elapsed();
    Ok(r)
}

/// Cells per served chunk: a chunk is the unit of checkpoint append.
const CHUNK: usize = 16;

/// Runs rounds while the next one is expected to end no more than half
/// a round past `budget`, so runs last about `budget` on average (at
/// least one round; served workloads also keep going until 100
/// submissions, within 3× budget).
fn rounds(
    ctx: &Ctx,
    budget: f64,
    client: Option<&mut Client>,
    refs: &[String],
    out: &mut Outcome,
) -> Vec<Round> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut submissions = 0;
    let mut client = client;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next_ends = elapsed + 0.5 * elapsed / done.len().max(1) as f64;
        let want_more = ctx.workload.mode == Mode::Served && submissions < 100;
        if !done.is_empty() && next_ends > budget && !(want_more && elapsed < 3.0 * budget) {
            break;
        }
        let round = match client.as_deref_mut() {
            Some(c) => served_round(ctx, c, refs),
            None => local_round(ctx, done.len() as u64),
        };
        match round {
            Ok(mut r) => {
                out.attempted += r.cells as u64;
                out.failed += r.failed as u64;
                submissions += r.latencies.len();
                // Only round 0's documents are read later (gains, the
                // traced-vs-timed check); dropping the rest keeps the
                // benchmark's own data out of the peak-memory figure.
                if !done.is_empty() {
                    r.csvs = Vec::new();
                    r.tables = Vec::new();
                }
                done.push(r);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.fail(e);
                break;
            }
        }
    }
    done
}

/// Mean ACS/WCS energy ratio over greedy cells paired on every other
/// coordinate, and mean ReOpt/greedy energy ratio over cells paired on
/// every other coordinate (the paper's gain is `1 − ratio`).
fn gains(tables: &[&Table]) -> (f64, f64) {
    let coords = [
        "task_set",
        "processor",
        "cores",
        "partition",
        "placement",
        "class",
        "workload",
        "arrivals",
    ];
    let (mut acs, mut reopt) = (Vec::new(), Vec::new());
    for t in tables {
        let key = |r: &Vec<String>, extra: &str| {
            let mut k: Vec<&str> = coords.iter().map(|c| r[t.col(c)].as_str()).collect();
            k.push(&r[t.col(extra)]);
            k.join("|")
        };
        let energy = |r: &Vec<String>| t.num(r, "mean_energy").unwrap_or(f64::NAN);
        let policy = t.col("policy");
        let schedule = t.col("schedule");
        let mut wcs = HashMap::new();
        let mut greedy = HashMap::new();
        for r in &t.rows {
            if r[policy] == "greedy" {
                if r[schedule] == "WCS" {
                    wcs.insert(key(r, "policy"), energy(r));
                }
                greedy.insert(key(r, "schedule"), energy(r));
            }
        }
        for r in &t.rows {
            if r[policy] == "greedy" && r[schedule] == "ACS" {
                if let Some(base) = wcs.get(&key(r, "policy")) {
                    acs.push(energy(r) / base);
                }
            }
            if r[policy] == "reopt" {
                if let Some(base) = greedy.get(&key(r, "schedule")) {
                    reopt.push(energy(r) / base);
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&acs), mean(&reopt))
}

/// The workload's quality figures from one round's result tables: ACS
/// vs WCS on its dominant scenario(s), ReOpt vs greedy wherever ReOpt
/// runs.
fn energy_ratios(w: &Workload, tables: &[Table]) -> (f64, f64) {
    let lead = w.inputs[0].label;
    let dominant: Vec<&Table> = w
        .inputs
        .iter()
        .zip(tables)
        .filter(|(i, _)| i.label == lead)
        .map(|(_, t)| t)
        .collect();
    let all: Vec<&Table> = tables.iter().collect();
    (gains(&dominant).0, gains(&all).1)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats the workload's set-up: parse + materialize + build every
/// scenario, and for served workloads also bind a server and complete
/// the first handshake.
fn setup_samples(ctx: &Ctx, n: usize, out: &mut Outcome) -> Vec<f64> {
    let mut samples = Vec::with_capacity(n);
    for k in 0..n {
        let w = (ctx.round)(k as u64);
        let t = Instant::now();
        for input in &w.inputs {
            if let Err(e) = exec::build(&input.text) {
                out.fail(format!("{}: {e}", input.label));
                return samples;
            }
        }
        if ctx.workload.mode == Mode::Served {
            match connect(ctx) {
                Ok((server, client)) => {
                    samples.push(secs(t.elapsed()));
                    hang_up(server, client, out);
                }
                Err(e) => {
                    out.fail(e);
                    return samples;
                }
            }
        } else {
            samples.push(secs(t.elapsed()));
        }
    }
    samples
}

/// The in-process CSV of every input: the reference served results must
/// reproduce (solver counters masked on `reopt` rows).
fn references(ctx: &Ctx) -> Result<Vec<String>, String> {
    ctx.workload
        .inputs
        .iter()
        .map(|i| exec::run_local(&i.text, ctx.threads).map(|r| r.csv))
        .collect()
}

/// A fresh server plus one connected client.
fn connect(ctx: &Ctx) -> Result<(Server, Client), String> {
    let server = Server::start(&ctx.work.join("ckpt"), ctx.threads).map_err(|e| e.to_string())?;
    match Client::connect(server.addr) {
        Ok(client) => Ok((server, client)),
        Err(e) => {
            let _ = server.join();
            Err(e)
        }
    }
}

fn hang_up(server: Server, client: Client, out: &mut Outcome) {
    drop(client);
    if let Err(e) = server.join() {
        out.fail(e);
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n_setup = if ctx.workload.mode == Mode::Served {
        40
    } else {
        20
    };
    let rounds = match ctx.workload.mode {
        Mode::Local => rounds(ctx, ctx.seconds, None, &[], &mut out),
        Mode::Served => match references(ctx).and_then(|r| connect(ctx).map(|s| (r, s))) {
            Ok((refs, (server, mut client))) => {
                let done = rounds(ctx, ctx.seconds, Some(&mut client), &refs, &mut out);
                hang_up(server, client, &mut out);
                done
            }
            Err(e) => {
                out.fail(e);
                Vec::new()
            }
        },
    };
    let mut setup = setup_samples(ctx, n_setup, &mut out);
    if ctx.workload.mode == Mode::Local {
        setup.extend(rounds.iter().map(|r| secs(r.setup)));
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().map(|d| secs(*d) * 1e3))
        .collect();
    let (acs_ratio, reopt_ratio) = rounds
        .first()
        .map_or((0.0, 0.0), |r| energy_ratios(ctx.workload, &r.tables));
    out.push("setup_s", median(&setup), "s");
    out.push(
        "cells_per_s",
        per_round(&|r| r.cells as f64 / secs(r.busy)),
        "1/s",
    );
    out.push("jobs_per_s", per_round(&|r| r.jobs / secs(r.busy)), "1/s");
    out.push("first_record_s", per_round(&|r| secs(r.first_record)), "s");
    out.push("submit_p50_ms", quantile(&latencies, 0.5), "ms");
    out.push("submit_p90_ms", quantile(&latencies, 0.9), "ms");
    out.notes.push(("submit_samples", latencies.len() as f64));
    out.notes.push(("rounds", rounds.len() as f64));
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push("acs_energy_ratio", acs_ratio, "ratio");
    out.push("reopt_energy_ratio", reopt_ratio, "ratio");
    out
}

/// Per-layer sums over one traced in-process round.
#[derive(Default)]
struct Layers {
    wall: f64,
    parse: f64,
    materialize: f64,
    plan: f64,
    plan_keys: f64,
    run: f64,
    sink: f64,
    records: f64,
    /// `(time, jobs)` per engine group.
    groups: HashMap<&'static str, (f64, f64)>,
    jobs: f64,
    preemptions: f64,
    switches: f64,
    multi_jobs: f64,
    migrations: f64,
    misses: f64,
    failed: f64,
    cells: f64,
    reopt_extra: f64,
    lookups: f64,
    reopt_jobs: f64,
    carried: f64,
    cached: f64,
    resolved: f64,
    adopted: f64,
    csvs: Vec<String>,
}

/// Which engine path a cell exercises.
fn engine_group(c: &CellReport) -> &'static str {
    if c.arrivals == "trace" {
        "trace.engine_ns_per_job.replay"
    } else if c.cores > 1 && c.placement == "global" {
        "multi.engine_ns_per_job.global"
    } else if c.cores > 1 {
        "multi.engine_ns_per_job.partitioned"
    } else if c.arrivals != "periodic" {
        "trace.engine_ns_per_job.aperiodic"
    } else {
        "sim.engine_ns_per_job.single"
    }
}

pub const ENGINE_GROUPS: [&str; 5] = [
    "sim.engine_ns_per_job.single",
    "multi.engine_ns_per_job.partitioned",
    "multi.engine_ns_per_job.global",
    "trace.engine_ns_per_job.aperiodic",
    "trace.engine_ns_per_job.replay",
];

fn traced_round(ctx: &Ctx, k: u64) -> Result<Layers, String> {
    let w = (ctx.round)(k);
    let start = Instant::now();
    let mut l = Layers::default();
    for input in &w.inputs {
        let run = exec::run_traced(&input.text, ctx.threads)?;
        gate::check_csv(&run.csv, run.cells.len(), ctx.workload.trace_jobs)
            .and_then(|_| gate::check_records(&run.cells))
            .map_err(|e| format!("{} (traced): {e}", input.label))?;
        l.parse += secs(run.parse);
        l.materialize += secs(run.materialize);
        l.plan += secs(run.plan);
        l.plan_keys += run.plan_keys as f64;
        l.sink += secs(run.sink_time);
        l.records += run.cells.len() as f64;
        // ReOpt cells are timed against their greedy twin (same
        // coordinates, greedy policy); the difference is the ReOpt cost.
        let twin_key = |c: &CellReport| {
            format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{}",
                c.task_set,
                c.processor,
                c.cores,
                c.partition,
                c.placement,
                c.class.label(),
                c.schedule,
                c.workload,
                c.arrivals
            )
        };
        let greedy: HashMap<String, f64> = run
            .cells
            .iter()
            .zip(&run.cell_times)
            .filter(|(c, _)| c.policy == "greedy")
            .map(|(c, t)| (twin_key(c), secs(*t)))
            .collect();
        for (c, t) in run.cells.iter().zip(&run.cell_times) {
            let t = secs(*t);
            l.run += t;
            l.cells += 1.0;
            let Some(s) = c.stats() else {
                l.failed += 1.0;
                continue;
            };
            let jobs = s.jobs_completed as f64;
            l.jobs += jobs;
            l.preemptions += s.preemptions as f64;
            l.switches += s.voltage_switches as f64;
            l.misses += s.deadline_misses as f64;
            if c.cores > 1 {
                l.multi_jobs += jobs;
                l.migrations += s.migrations as f64;
            }
            if c.policy == "reopt" {
                l.reopt_extra += t - greedy.get(&twin_key(c)).copied().unwrap_or(0.0);
                l.lookups += s.solver_lookups as f64;
                l.reopt_jobs += jobs;
                l.carried += s.warm_carry_hits as f64;
                l.cached += s.solver_cache_hits as f64;
                l.resolved += s.boundary_resolves as f64;
                l.adopted += s.resolves_adopted as f64;
            } else {
                let g = l.groups.entry(engine_group(c)).or_default();
                g.0 += t;
                g.1 += jobs;
            }
        }
        l.csvs.push(run.csv);
    }
    l.wall = secs(start.elapsed());
    Ok(l)
}

impl Layers {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let covered = self.parse + self.materialize + self.plan + self.run;
        let mut v = vec![
            ("scenario.parse_ms", self.parse * 1e3, "ms"),
            ("scenario.materialize_ms", self.materialize * 1e3, "ms"),
            ("runtime.plan_ms", self.plan * 1e3, "ms"),
            ("runtime.plan_keys", self.plan_keys, "count"),
            ("runtime.run_ms", self.run * 1e3, "ms"),
            (
                "runtime.sink_ns_per_record",
                ratio(self.sink * 1e9, self.records),
                "ns",
            ),
            (
                "runtime.plan_share_pct",
                ratio(100.0 * self.plan, self.wall),
                "%",
            ),
            (
                "sim.preemptions_per_job",
                ratio(self.preemptions, self.jobs),
                "ratio",
            ),
            (
                "sim.voltage_switches_per_job",
                ratio(self.switches, self.jobs),
                "ratio",
            ),
            (
                "multi.migrations_per_job",
                ratio(self.migrations, self.multi_jobs),
                "ratio",
            ),
            (
                "reopt.ms_per_lookup",
                ratio(self.reopt_extra * 1e3, self.lookups),
                "ms",
            ),
            (
                "reopt.lookups_per_job",
                ratio(self.lookups, self.reopt_jobs),
                "ratio",
            ),
            (
                "reopt.warm_carry_rate",
                ratio(self.carried, self.lookups),
                "ratio",
            ),
            (
                "reopt.cache_hit_rate",
                ratio(self.cached, self.lookups),
                "ratio",
            ),
            (
                "reopt.resolve_rate",
                ratio(self.resolved, self.lookups),
                "ratio",
            ),
            (
                "reopt.adopt_rate",
                ratio(self.adopted, self.resolved),
                "ratio",
            ),
            (
                "reopt.share_pct",
                ratio(100.0 * self.reopt_extra, self.wall),
                "%",
            ),
            ("miss_rate", ratio(self.misses, self.jobs), "ratio"),
            ("failed_frac", ratio(self.failed, self.cells), "ratio"),
            (
                "trace.layer_coverage_pct",
                ratio(100.0 * covered, self.wall),
                "%",
            ),
        ];
        for g in ENGINE_GROUPS {
            let (t, jobs) = self.groups.get(g).copied().unwrap_or_default();
            v.push((g, ratio(t * 1e9, jobs), "ns"));
        }
        v
    }
}

/// The solver probe: expansion and WCS/ACS synthesis called directly,
/// single-threaded, on every set of the dominant scenario (first
/// processor), with the scenario's synthesis settings.
fn solver_probe(ctx: &Ctx, out: &mut Outcome) {
    let scenario = match Scenario::from_text(&ctx.workload.inputs[0].text) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("probe: {e}")),
    };
    let (sets, cpus) = match (
        scenario.materialize_task_sets(),
        scenario.materialize_processors(),
    ) {
        (Ok(s), Ok(c)) => (s, c),
        (Err(e), _) | (_, Err(e)) => return out.fail(format!("probe: {e}")),
    };
    let cpu = &cpus[0].1;
    let opts = match scenario.synthesis {
        Some(SynthProfile::Default) => SynthesisOptions::default(),
        _ => SynthesisOptions::quick(),
    };
    let (mut expand_ms, mut subs, mut wcs_ms, mut acs_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut evals, mut outer, mut solves, mut converged, mut n) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (name, set) in &sets {
        let t = Instant::now();
        let fps = FullyPreemptiveSchedule::expand_capped(set, opts.sub_instance_cap);
        let expansion = secs(t.elapsed());
        let Ok(fps) = fps else { continue };
        let t = Instant::now();
        let wcs = match synthesize_wcs(set, cpu, &opts) {
            Ok(w) => w,
            Err(e) => return out.fail(format!("probe: WCS on `{name}`: {e}")),
        };
        let wcs_t = secs(t.elapsed());
        // `synthesize_acs_best` is the warm solve then the cold one;
        // calling both directly keeps each solve's own diagnostics.
        let t = Instant::now();
        let mut acs = vec![synthesize_acs_warm(set, cpu, &opts, &wcs)];
        if scenario.acs_multistart {
            acs.push(synthesize_acs(set, cpu, &opts));
        }
        let acs_t = secs(t.elapsed());
        n += 1.0;
        expand_ms += expansion * 1e3;
        subs += fps.len() as f64;
        wcs_ms += wcs_t * 1e3;
        acs_ms += acs_t * 1e3;
        for d in std::iter::once(wcs.diagnostics()).chain(
            acs.iter()
                .filter_map(|a| a.as_ref().ok())
                .map(|a| a.diagnostics()),
        ) {
            evals += d.evaluations as f64;
            outer += d.outer_iterations as f64;
            converged += f64::from(u8::from(d.converged));
            solves += 1.0;
        }
    }
    let per = |x: f64, d: f64| if d > 0.0 { x / d } else { 0.0 };
    out.push("preempt.expansion_ms", per(expand_ms, n), "ms");
    out.push("preempt.sub_instances", per(subs, n), "count");
    out.push("core.wcs_ms", per(wcs_ms, n), "ms");
    out.push("core.acs_ms", per(acs_ms, n), "ms");
    out.push("opt.synth_evals", per(evals, n), "count");
    out.push("opt.outer_iters", per(outer, solves), "count");
    out.push("opt.us_per_eval", per((wcs_ms + acs_ms) * 1e3, evals), "us");
    out.push("opt.converged_frac", per(converged, solves), "ratio");
}

/// Server-side per-layer metrics from client frame timings: `subs` in
/// submission order, where the first submission of each distinct
/// scenario is the cold one.
fn serve_metrics(
    out: &mut Outcome,
    handshakes: &[f64],
    subs: &[(usize, &Submission)],
    stats: &acs_serve::json::Object,
) {
    let mut seen = std::collections::HashSet::new();
    let (mut cold, mut warm, mut accept) = (Vec::new(), Vec::new(), Vec::new());
    let (mut stream_ns, mut streamed) = (0.0, 0.0);
    for (input, s) in subs {
        let first = secs(s.to_first_record) * 1e3;
        if seen.insert(*input) {
            cold.push(first);
        } else {
            warm.push(first);
            accept.push(secs(s.to_accepted) * 1e3);
            stream_ns += secs(s.to_last_record - s.to_first_record) * 1e9;
            streamed += s.records.saturating_sub(1) as f64;
        }
    }
    let lookups = exec::num(stats, "plan_lookups");
    out.push("serve.handshake_ms", median(handshakes), "ms");
    out.push("serve.first_record_ms.cold", median(&cold), "ms");
    out.push("serve.first_record_ms.warm", median(&warm), "ms");
    out.push("serve.accept_ms.warm", median(&accept), "ms");
    out.push(
        "serve.ns_per_record",
        if streamed > 0.0 {
            stream_ns / streamed
        } else {
            0.0
        },
        "ns",
    );
    out.push(
        "serve.plan_hit_rate",
        if lookups > 0.0 {
            exec::num(stats, "plan_hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    out.push(
        "serve.solver_hit_rate",
        exec::num(stats, "solver_hit_rate"),
        "ratio",
    );
}

/// Handshake latency over fresh servers (each serves one connection).
fn handshakes(ctx: &Ctx, n: usize, out: &mut Outcome) -> Vec<f64> {
    let mut v = Vec::new();
    for _ in 0..n {
        let server = match Server::start(&ctx.work.join("ckpt"), ctx.threads) {
            Ok(s) => s,
            Err(e) => {
                out.fail(e.to_string());
                break;
            }
        };
        let t = Instant::now();
        match Client::connect(server.addr) {
            Ok(client) => {
                v.push(secs(t.elapsed()) * 1e3);
                hang_up(server, client, out);
            }
            Err(e) => {
                out.fail(e);
                let _ = server.join();
                break;
            }
        }
    }
    v
}

/// The traced run: every per-layer metric.
pub fn traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let w = ctx.workload;
    let budget = ctx.seconds * 0.4;
    let mut layer_rounds: Vec<Layers> = Vec::new();
    let (untraced_wall, traced_wall, coverage);
    let mut served: Vec<(usize, Submission)> = Vec::new();
    let mut stats = acs_serve::json::Object::default();
    let hs = handshakes(ctx, 5, &mut out);
    match w.mode {
        Mode::Local => {
            let base = rounds(ctx, budget, None, &[], &mut out);
            untraced_wall = median(&base.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
            let start = Instant::now();
            while layer_rounds.is_empty() || start.elapsed().as_secs_f64() < budget {
                match traced_round(ctx, layer_rounds.len() as u64) {
                    Ok(l) => layer_rounds.push(l),
                    Err(e) => {
                        out.fail(e);
                        break;
                    }
                }
            }
            traced_wall = median(&layer_rounds.iter().map(|l| l.wall).collect::<Vec<_>>());
            coverage = None;
            // The traced CSVs must equal the timed ones.
            if let (Some(b), Some(l)) = (base.first(), layer_rounds.first()) {
                for ((input, a), t) in w.inputs.iter().zip(&b.csvs).zip(&l.csvs) {
                    if let Err(e) = gate::same_results(input.label, a, t) {
                        out.fail(format!("traced vs timed: {e}"));
                    }
                }
            }
            // Serve probe: the small scenarios, each submitted cold then
            // warm, checked against the in-process results.
            match connect(ctx) {
                Ok((server, mut client)) => {
                    for round in 0..2 {
                        for (i, input) in w.inputs.iter().enumerate().skip(1) {
                            match client.submit(&input.text, CHUNK) {
                                Ok(s) => {
                                    let local = base.first().map(|b| b.csvs[i].as_str());
                                    if let Err(e) = gate::check_csv(&s.csv, s.records, w.trace_jobs)
                                        .map(|_| ())
                                        .and_then(|()| match local {
                                            Some(l) => gate::same_results(input.label, &s.csv, l),
                                            None => Ok(()),
                                        })
                                    {
                                        out.fail(format!("served probe: {e}"));
                                    }
                                    served.push((i, s));
                                }
                                Err(e) => out.fail(format!("served probe round {round}: {e}")),
                            }
                        }
                    }
                    match client.stats() {
                        Ok(s) => stats = s,
                        Err(e) => out.fail(e),
                    }
                    hang_up(server, client, &mut out);
                }
                Err(e) => out.fail(e),
            }
        }
        Mode::Served => {
            let refs = match references(ctx) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(e);
                    Vec::new()
                }
            };
            match connect(ctx) {
                Ok((server, mut client)) => {
                    let base = rounds(ctx, budget, Some(&mut client), &refs, &mut out);
                    let timed = rounds(ctx, budget, Some(&mut client), &refs, &mut out);
                    untraced_wall = median(&base.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
                    traced_wall = median(&timed.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
                    let covered: Vec<f64> = timed
                        .iter()
                        .map(|r| {
                            100.0 * r.latencies.iter().map(|d| secs(*d)).sum::<f64>() / secs(r.wall)
                        })
                        .collect();
                    coverage = Some(median(&covered));
                    for r in base.into_iter().chain(timed) {
                        served.extend(r.submissions.into_iter().enumerate());
                    }
                    match client.stats() {
                        Ok(s) => stats = s,
                        Err(e) => out.fail(e),
                    }
                    hang_up(server, client, &mut out);
                }
                Err(e) => {
                    out.fail(e);
                    untraced_wall = 0.0;
                    traced_wall = 0.0;
                    coverage = Some(0.0);
                }
            }
            // The in-process layer breakdown of the same scenarios.
            match traced_round(ctx, 0) {
                Ok(l) => layer_rounds.push(l),
                Err(e) => out.fail(e),
            }
        }
    }
    // Per-layer values: medians across traced rounds.
    if let Some(first) = layer_rounds.first() {
        for (i, (name, _, unit)) in first.metrics().into_iter().enumerate() {
            let values: Vec<f64> = layer_rounds.iter().map(|l| l.metrics()[i].1).collect();
            let value = match (name, coverage) {
                ("trace.layer_coverage_pct", Some(c)) => c,
                _ => median(&values),
            };
            out.push(name, value, unit);
        }
    }
    out.push(
        "trace.overhead_pct",
        if untraced_wall > 0.0 {
            100.0 * (traced_wall / untraced_wall - 1.0)
        } else {
            0.0
        },
        "%",
    );
    // The paper's headline gains, from the traced round-0 results.
    if let Some(l) = layer_rounds.first() {
        match l
            .csvs
            .iter()
            .map(|c| Table::parse(c))
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(tables) => {
                let (acs, reopt) = energy_ratios(w, &tables);
                out.push("acs_gain_pct", 100.0 * (1.0 - acs), "%");
                out.push("reopt_gain_pct", 100.0 * (1.0 - reopt), "%");
            }
            Err(e) => out.fail(e),
        }
    }
    let subs: Vec<(usize, &Submission)> = served.iter().map(|(i, s)| (*i, s)).collect();
    serve_metrics(&mut out, &hs, &subs, &stats);
    solver_probe(ctx, &mut out);
    out.attempted += layer_rounds.iter().map(|l| l.cells as u64).sum::<u64>();
    out.failed += layer_rounds.iter().map(|l| l.failed as u64).sum::<u64>();
    out
}
