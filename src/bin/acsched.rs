//! `acsched` — the command-line front end of the workspace.
//!
//! Experiments are *data*: a scenario text file (grammar in
//! `docs/SCENARIO_FORMAT.md`, examples in `scenarios/`) declares the
//! whole campaign grid, and this binary parses, validates, runs and
//! streams it.
//!
//! ```text
//! acsched check <scenario>...                 parse + validate + grid size
//! acsched run <scenario> [--out FILE] [--threads N]
//!                                             run; stream CSV/JSONL to FILE
//! acsched synth <scenario> --task-set NAME --processor NAME
//!               [--kind wcs|acs] [--out FILE] offline schedule -> artifact
//! acsched serve [--addr HOST:PORT] [...]     long-lived campaign server
//! acsched submit <scenario> [--addr ...]     stream a campaign to a server
//! acsched stats [--addr ...]                 print server cache counters
//! acsched trace gen [--profile P] [--jobs N] [--out FILE]
//!                                             synthesize an arrival trace
//! acsched trace check <trace>...              validate trace files
//! ```

use acs_core::{synthesize_acs_best, synthesize_acs_warm, synthesize_wcs};
use acs_runtime::{AggregateSink, CsvSink, JsonlSink, ResultSink, Tee};
use acs_scenario::{Scenario, SynthProfile};
use acs_serve::{ServerConfig, SubmitOptions};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
acsched — average-case-aware DVS scheduling experiments

USAGE:
    acsched check <scenario>...
        Parse and validate scenario files; print each grid's size
        without running anything.

    acsched run <scenario> [--out FILE] [--threads N] [--quiet]
        Run the campaign. --out streams per-cell records to FILE while
        the grid executes (format by extension: .csv, .jsonl/.ndjson);
        --threads overrides the scenario's worker count; --quiet
        suppresses the result table. Exits 1 when any cell failed.

    acsched synth <scenario> --task-set NAME --processor NAME
            [--kind wcs|acs] [--out FILE]
        Synthesize the offline schedule for one (task set, processor)
        pair of the scenario and export it as an `acsched-schedule v1`
        artifact (default kind: acs, to stdout). The set is scheduled
        under the scenario's first `class` (rm when it declares none),
        the class of the grid's first cells; stderr names it.

    acsched serve [--addr HOST:PORT] [--ckpt-dir DIR] [--max-campaigns N]
            [--inflight N] [--chunk N] [--threads N] [--cache-capacity N]
            [--cache-shards N]
        Run the campaign server: a long-lived process whose solver and
        plan caches stay warm across submissions. Prints
        `listening on <addr>` once bound (`--addr :0` picks a free
        port). Campaigns checkpoint to DIR (default .acsched-ckpt) and
        are resumable after a crash. Protocol: docs/SERVER.md.

    acsched submit <scenario> [--addr HOST:PORT] [--id NAME] [--resume]
            [--out FILE] [--threads N] [--chunk N] [--quiet]
        Stream a scenario to a server. --out writes the streamed CSV
        (byte-identical to `acsched run` for non-reopt scenarios);
        --resume replays chunks already checkpointed under --id.
        Exits 1 when any cell failed.

    acsched stats [--addr HOST:PORT]
        Print the server's cache/campaign counters as one JSON line.

    acsched trace gen [--profile light|bursty|heavy] [--jobs N]
            [--seed N] [--tasks N] [--out FILE]
        Synthesize an `acsched-trace v1` arrival trace over the built-in
        task set (default: bursty, 1000000 jobs, seed 0, 4 tasks, to
        stdout). Replay it with a `taskset <name> trace <path>` line
        in a scenario. Format: docs/TRACE_FORMAT.md.

    acsched trace check <trace>...
        Validate trace files: stream every record (bounded memory),
        checking the prologue, monotone arrivals and cycle bounds.
        Prints a per-file summary; exits 1 on the first malformed file,
        naming its line.

Scenario grammar: docs/SCENARIO_FORMAT.md; examples: scenarios/";

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("acsched: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Positional arguments and `(name, value)` option pairs of one
/// subcommand invocation (a toggle's value is the empty string).
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits `args` into positionals, `--flag value` options (from
/// `known`) and bare `--switch` toggles (from `known_bools`), rejecting
/// anything else.
fn parse_flags<'a>(
    args: &'a [String],
    known: &[&str],
    known_bools: &[&str],
) -> Result<ParsedArgs<'a>, String> {
    let mut positional = Vec::new();
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if flags.iter().any(|(k, _)| *k == name) {
                return Err(format!("option `--{name}` given twice"));
            }
            if known_bools.contains(&name) {
                flags.push((name, ""));
            } else if known.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option `--{name}` needs a value"))?;
                flags.push((name, value.as_str()));
            } else {
                return Err(format!("unknown option `--{name}`"));
            }
        } else {
            positional.push(arg.as_str());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let (paths, _flags) = parse_flags(args, &[], &[])?;
    if paths.is_empty() {
        return Err("check: expected at least one scenario file".into());
    }
    for path in paths {
        let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
        // Row count straight from the declarations; `to_campaign` below
        // does the single materialization pass (fig6a-scale scenarios
        // generate 150 random sets — no need to do that twice).
        let declared_rows: usize = scenario
            .task_sets
            .iter()
            .map(|decl| match decl {
                acs_scenario::TaskSetDecl::Random { count, .. } => *count,
                _ => 1,
            })
            .sum();
        let campaign = scenario.to_campaign().map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok — {} cells, {} runs",
            campaign.cell_count(),
            campaign.run_count(),
        );
        // Per-axis breakdown, so an exploding grid points at its axis.
        // Defaults that the campaign builder fills in are spelled out.
        let join_vals = |vals: &[String]| -> String {
            if vals.is_empty() {
                String::new()
            } else {
                format!(" ({})", vals.join(" "))
            }
        };
        let cores: Vec<String> = scenario.cores.iter().map(usize::to_string).collect();
        let partitioners: Vec<String> = scenario
            .partitioners
            .iter()
            .map(|h| h.label().to_string())
            .collect();
        let schedules: Vec<String> = scenario
            .schedules
            .iter()
            .map(|s| s.label().to_lowercase())
            .collect();
        let classes: Vec<String> = scenario
            .classes
            .iter()
            .map(|c| c.label().to_string())
            .collect();
        let arrivals: Vec<String> = scenario
            .arrivals
            .iter()
            .map(|a| a.label().to_string())
            .collect();
        let placements: Vec<String> = scenario
            .placements
            .iter()
            .map(|p| p.label().to_string())
            .collect();
        // The builder owns seed dedup/defaulting; read the per-cell run
        // count back from the grid it produced.
        let seeds = campaign.run_count() / campaign.cell_count().max(1);
        let axes: [(&str, usize, String); 10] = [
            ("task sets", declared_rows, String::new()),
            ("processors", scenario.processors.len(), String::new()),
            (
                "cores",
                scenario.cores.len().max(1),
                if cores.is_empty() {
                    " (1)".into()
                } else {
                    join_vals(&cores)
                },
            ),
            (
                "classes",
                scenario.classes.len().max(1),
                if classes.is_empty() {
                    " (rm)".into()
                } else {
                    join_vals(&classes)
                },
            ),
            (
                "partitioners",
                scenario.partitioners.len().max(1),
                format!(
                    " ({}; single-core cells collapse this axis)",
                    if partitioners.is_empty() {
                        "ffd".to_string()
                    } else {
                        partitioners.join(" ")
                    }
                ),
            ),
            (
                "schedules",
                scenario.schedules.len(),
                if schedules.is_empty() {
                    " (derived from the policies)".into()
                } else {
                    join_vals(&schedules)
                },
            ),
            (
                "arrivals",
                scenario.arrivals.len().max(1),
                if arrivals.is_empty() {
                    " (periodic; trace-backed sets replay their stream)".into()
                } else {
                    format!(
                        " ({}; trace-backed sets replay their stream)",
                        arrivals.join(" ")
                    )
                },
            ),
            (
                "placements",
                scenario.placements.len().max(1),
                format!(
                    " ({}; single-core cells collapse this axis)",
                    if placements.is_empty() {
                        "partitioned".to_string()
                    } else {
                        placements.join(" ")
                    }
                ),
            ),
            ("policies", scenario.policies.len(), String::new()),
            ("workloads", scenario.workloads.len(), String::new()),
        ];
        for (axis, count, detail) in axes {
            println!("  {axis:<13} {count}{detail}");
        }
        println!("  {:<13} {seeds}", "seeds");
        // Precedence graphs: one line per `dag` block. The edges were
        // validated (acyclicity included) while parsing the file.
        for dag in &scenario.dags {
            println!(
                "  dag {}: {} edge{}",
                dag.set,
                dag.edges.len(),
                if dag.edges.len() == 1 { "" } else { "s" }
            );
        }
        // Trace-backed sets: print each file's content fingerprint, so
        // two checkouts can compare what a cell will actually replay.
        for (name, trace_path) in scenario.trace_paths() {
            let bytes = std::fs::read(&trace_path).map_err(|e| {
                format!("{path}: taskset `{name}`: cannot read `{trace_path}`: {e}")
            })?;
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for b in &bytes {
                hash ^= *b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            println!(
                "  trace {name}: {trace_path} fnv1a={hash:016x} ({} bytes)",
                bytes.len()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (paths, flags) = parse_flags(args, &["out", "threads"], &["quiet"])?;
    let [path] = paths.as_slice() else {
        return Err("run: expected exactly one scenario file".into());
    };
    let quiet = flag(&flags, "quiet").is_some();
    let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
    let mut builder = scenario.campaign_builder().map_err(|e| e.to_string())?;
    if let Some(threads) = flag(&flags, "threads") {
        let n: usize = threads
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("run: `--threads {threads}` is not a positive integer"))?;
        builder = builder.threads(n);
    }
    let campaign = builder.build().map_err(|e| e.to_string())?;
    eprintln!(
        "running {} cells / {} runs...",
        campaign.cell_count(),
        campaign.run_count()
    );

    // Aggregate in memory for the summary table, and tee the same
    // stream into the output file when requested.
    let mut aggregate = AggregateSink::new();
    let report = match flag(&flags, "out") {
        Some(out_path) => {
            let file = std::fs::File::create(out_path)
                .map_err(|e| format!("cannot create `{out_path}`: {e}"))?;
            let writer = std::io::BufWriter::new(file);
            let mut file_sink: Box<dyn ResultSink> =
                if out_path.ends_with(".jsonl") || out_path.ends_with(".ndjson") {
                    Box::new(JsonlSink::new(writer))
                } else if out_path.ends_with(".csv") {
                    Box::new(CsvSink::new(writer))
                } else {
                    return Err(format!(
                        "run: cannot infer a format from `{out_path}` \
                     (expected a .csv, .jsonl or .ndjson extension)"
                    ));
                };
            let mut tee = Tee::new(vec![&mut aggregate, &mut *file_sink]);
            campaign
                .run_with(&mut tee)
                .map_err(|e| format!("writing `{out_path}`: {e}"))?;
            eprintln!("streamed {} records to {out_path}", campaign.cell_count());
            aggregate.into_report()
        }
        None => {
            campaign
                .run_with(&mut aggregate)
                .map_err(|e| format!("streaming: {e}"))?;
            aggregate.into_report()
        }
    };

    if !quiet {
        print!("{}", report.to_table());
        let gains = report.gains();
        if !gains.is_empty() {
            let mean = gains.iter().map(|(_, g)| g).sum::<f64>() / gains.len() as f64;
            println!(
                "ACS-vs-WCS gain over {} paired cells: mean {:.1}%",
                gains.len(),
                100.0 * mean
            );
        }
        let reopt = report.policy_gains("greedy", "reopt");
        if !reopt.is_empty() {
            let mean = reopt.iter().map(|(_, g)| g).sum::<f64>() / reopt.len() as f64;
            println!(
                "reopt-vs-greedy gain over {} paired cells: mean {:.1}%",
                reopt.len(),
                100.0 * mean
            );
        }
    }
    // Aperiodic misses, split by cause. Poisson, MMPP and trace
    // releases can outpace the periods the schedule was built for;
    // sporadic releases never do, so their misses come from the per-job
    // plan each aperiodic job runs on.
    let (mut sporadic, mut overload) = (0, 0);
    for cell in report.cells() {
        if let Some(stats) = cell.stats() {
            match cell.arrivals.as_str() {
                "sporadic" => sporadic += stats.misses_aperiodic,
                _ => overload += stats.misses_aperiodic,
            }
        }
    }
    if overload > 0 {
        eprintln!(
            "warning: {overload} deadline misses on aperiodic jobs of poisson, mmpp or trace \
             cells — the arrival stream overloads the schedule (profiles and feasibility: \
             docs/TRACE_FORMAT.md)"
        );
    }
    if sporadic > 0 {
        eprintln!(
            "warning: {sporadic} deadline misses on aperiodic jobs of sporadic cells — \
             sporadic releases never outpace the period; each aperiodic job runs at \
             wcec / (deadline - release), a speed that ignores the rest of the set \
             (ROADMAP.md item 1; docs/TRACE_FORMAT.md)"
        );
    }
    let failures = report.failures().count();
    if failures > 0 {
        for (cell, err) in report.failures() {
            eprintln!(
                "  FAILED [{} {} {} {}] {err}",
                cell.task_set, cell.processor, cell.schedule, cell.policy
            );
        }
        eprintln!("{failures} of {} cells failed", report.cells().len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_usize(flags: &[(&str, &str)], name: &str, command: &str) -> Result<Option<usize>, String> {
    match flag(flags, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .map(Some)
            .ok_or_else(|| format!("{command}: `--{name} {v}` is not a positive integer")),
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let (paths, flags) = parse_flags(
        args,
        &[
            "addr",
            "ckpt-dir",
            "max-campaigns",
            "inflight",
            "chunk",
            "threads",
            "cache-capacity",
            "cache-shards",
        ],
        &[],
    )?;
    if !paths.is_empty() {
        return Err(format!("serve: unexpected argument `{}`", paths[0]));
    }
    let mut cfg = ServerConfig {
        addr: flag(&flags, "addr").unwrap_or(DEFAULT_ADDR).to_string(),
        ..ServerConfig::default()
    };
    if let Some(dir) = flag(&flags, "ckpt-dir") {
        cfg.ckpt_dir = dir.into();
    }
    if let Some(n) = parse_usize(&flags, "max-campaigns", "serve")? {
        cfg.max_campaigns = n;
    }
    if let Some(n) = parse_usize(&flags, "inflight", "serve")? {
        cfg.max_inflight_chunks = n;
    }
    if let Some(n) = parse_usize(&flags, "chunk", "serve")? {
        cfg.default_chunk_size = n;
    }
    if let Some(n) = parse_usize(&flags, "threads", "serve")? {
        cfg.threads = n;
    }
    if let Some(n) = parse_usize(&flags, "cache-capacity", "serve")? {
        cfg.cache_capacity = n;
    }
    if let Some(n) = parse_usize(&flags, "cache-shards", "serve")? {
        cfg.cache_shards = n;
    }
    acs_serve::serve(cfg).map_err(|e| format!("serve: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let (paths, flags) = parse_flags(
        args,
        &["addr", "id", "out", "threads", "chunk"],
        &["resume", "quiet"],
    )?;
    let [path] = paths.as_slice() else {
        return Err("submit: expected exactly one scenario file".into());
    };
    let scenario =
        std::fs::read_to_string(path).map_err(|e| format!("submit: cannot read `{path}`: {e}"))?;
    let opts = SubmitOptions {
        addr: flag(&flags, "addr").unwrap_or(DEFAULT_ADDR).to_string(),
        scenario,
        id: flag(&flags, "id").map(str::to_string),
        resume: flag(&flags, "resume").is_some(),
        threads: parse_usize(&flags, "threads", "submit")?,
        chunk: parse_usize(&flags, "chunk", "submit")?,
        quiet: flag(&flags, "quiet").is_some(),
    };
    let outcome = acs_serve::submit(&opts).map_err(|e| format!("submit: {e}"))?;
    match flag(&flags, "out") {
        Some(out_path) => {
            std::fs::write(out_path, &outcome.csv)
                .map_err(|e| format!("submit: cannot write `{out_path}`: {e}"))?;
            eprintln!(
                "campaign `{}`: {} cells streamed to {out_path} \
                 ({} chunks run, {} replayed)",
                outcome.id, outcome.cells, outcome.chunks_run, outcome.chunks_replayed
            );
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(outcome.csv.as_bytes());
            eprintln!(
                "campaign `{}`: {} cells ({} chunks run, {} replayed)",
                outcome.id, outcome.cells, outcome.chunks_run, outcome.chunks_replayed
            );
        }
    }
    if outcome.failed > 0 {
        eprintln!("{} of {} cells failed", outcome.failed, outcome.cells);
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let (paths, flags) = parse_flags(args, &["addr"], &[])?;
    if !paths.is_empty() {
        return Err(format!("stats: unexpected argument `{}`", paths[0]));
    }
    let addr = flag(&flags, "addr").unwrap_or(DEFAULT_ADDR);
    let line = acs_serve::stats(addr).map_err(|e| format!("stats: {e}"))?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_trace_gen(&args[1..]),
        Some("check") => cmd_trace_check(&args[1..]),
        Some(other) => Err(format!(
            "trace: unknown subcommand `{other}` (gen or check)"
        )),
        None => Err("trace: expected a subcommand (gen or check)".into()),
    }
}

fn cmd_trace_gen(args: &[String]) -> Result<ExitCode, String> {
    let (paths, flags) = parse_flags(args, &["profile", "jobs", "seed", "tasks", "out"], &[])?;
    if !paths.is_empty() {
        return Err(format!("trace gen: unexpected argument `{}`", paths[0]));
    }
    let profile: acs_trace::MmppProfile = flag(&flags, "profile")
        .unwrap_or("bursty")
        .parse()
        .map_err(|e| format!("trace gen: {e}"))?;
    let jobs: u64 = match flag(&flags, "jobs") {
        None => 1_000_000,
        Some(v) => v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("trace gen: `--jobs {v}` is not a positive integer"))?,
    };
    let seed: u64 = match flag(&flags, "seed") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("trace gen: `--seed {v}` is not a non-negative integer"))?,
    };
    let tasks = parse_usize(&flags, "tasks", "trace gen")?.unwrap_or(4);
    let cfg = acs_trace::GenConfig {
        profile,
        jobs,
        seed,
        tasks,
    };
    let (summary, dest) = match flag(&flags, "out") {
        Some(out_path) => {
            let file = std::fs::File::create(out_path)
                .map_err(|e| format!("trace gen: cannot create `{out_path}`: {e}"))?;
            let summary = acs_trace::generate(&cfg, std::io::BufWriter::new(file))
                .map_err(|e| format!("trace gen: {e}"))?;
            (summary, out_path.to_string())
        }
        None => {
            let stdout = std::io::stdout().lock();
            let summary = acs_trace::generate(&cfg, std::io::BufWriter::new(stdout))
                .map_err(|e| format!("trace gen: {e}"))?;
            (summary, "stdout".to_string())
        }
    };
    eprintln!(
        "wrote {} jobs over {} tasks ({:.1} ms, {} hyper-periods) to {dest}",
        summary.jobs, summary.tasks, summary.span_ms, summary.windows
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_check(args: &[String]) -> Result<ExitCode, String> {
    let (paths, _flags) = parse_flags(args, &[], &[])?;
    if paths.is_empty() {
        return Err("trace check: expected at least one trace file".into());
    }
    for path in paths {
        let mut reader = acs_trace::TraceReader::open(path).map_err(|e| format!("{path}: {e}"))?;
        let tasks = reader.set().len();
        let mut records = 0u64;
        let mut last_ms = 0.0f64;
        while let Some(rec) = reader.next_record().map_err(|e| format!("{path}: {e}"))? {
            records += 1;
            last_ms = rec.arrival_ms;
        }
        println!("{path}: ok — {records} jobs over {tasks} tasks, {last_ms:.1} ms span");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_synth(args: &[String]) -> Result<ExitCode, String> {
    let (paths, flags) = parse_flags(args, &["task-set", "processor", "kind", "out"], &[])?;
    let [path] = paths.as_slice() else {
        return Err("synth: expected exactly one scenario file".into());
    };
    let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
    let want_set = flag(&flags, "task-set").ok_or("synth: missing --task-set NAME")?;
    let want_cpu = flag(&flags, "processor").ok_or("synth: missing --processor NAME")?;
    let kind = match flag(&flags, "kind").unwrap_or("acs") {
        "wcs" => "wcs",
        "acs" => "acs",
        other => return Err(format!("synth: unknown --kind `{other}` (wcs or acs)")),
    };

    let sets = scenario
        .materialize_task_sets()
        .map_err(|e| e.to_string())?;
    let names: Vec<&str> = sets.iter().map(|(n, _)| n.as_str()).collect();
    let set = sets
        .iter()
        .find(|(n, _)| n == want_set)
        .map(|(_, s)| s)
        .ok_or_else(|| {
            format!(
                "synth: no task set named `{want_set}` (scenario has: {})",
                names.join(", ")
            )
        })?;
    // Schedule under the class of the grid's first cells, so the export
    // is one that a cell of this scenario runs.
    let class = scenario.classes.first().copied().unwrap_or_default();
    let set = set.clone().with_class(class);
    eprintln!("synth: scheduling class {class}");
    let cpus = scenario
        .materialize_processors()
        .map_err(|e| e.to_string())?;
    let cpu_names: Vec<&str> = cpus.iter().map(|(n, _)| n.as_str()).collect();
    let cpu = cpus
        .iter()
        .find(|(n, _)| n == want_cpu)
        .map(|(_, c)| c)
        .ok_or_else(|| {
            format!(
                "synth: no processor named `{want_cpu}` (scenario has: {})",
                cpu_names.join(", ")
            )
        })?;

    let options = scenario.synthesis.unwrap_or(SynthProfile::Quick).options();
    let wcs = synthesize_wcs(&set, cpu, &options).map_err(|e| format!("synth: wcs: {e}"))?;
    let schedule = if kind == "wcs" {
        wcs
    } else if scenario.acs_multistart {
        synthesize_acs_best(&set, cpu, &options, &wcs).map_err(|e| format!("synth: acs: {e}"))?
    } else {
        synthesize_acs_warm(&set, cpu, &options, &wcs).map_err(|e| format!("synth: acs: {e}"))?
    };
    let text = acs_core::export::to_text(&schedule);
    match flag(&flags, "out") {
        Some(out_path) => {
            std::fs::write(out_path, &text)
                .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
            eprintln!(
                "wrote {kind} schedule for `{want_set}` on `{want_cpu}` \
                 ({} milestones) to {out_path}",
                schedule.milestones().len()
            );
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(text.as_bytes());
        }
    }
    Ok(ExitCode::SUCCESS)
}
