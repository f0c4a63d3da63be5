//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It generates the workload's scenarios (and a trace file) from the
//! seed, runs them through the library's public API for `--seconds`,
//! gates every output for correctness and prints, as its last stdout
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it stamps the host and build. See `README.md`.

mod bench;
mod exec;
mod gate;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Ctx, Outcome};
use workloads::Scale;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the child processes of an untraced run: which slice of the
    /// run this process measures, and the parent's work directory.
    part: Option<u64>,
    work: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut part, mut work) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = Some(value == "1"),
            "--part" => part = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
        part,
        work,
    })
}

/// Worker threads: the host's parallelism, capped at two so results
/// from hosts of different sizes stay comparable.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// FNV-1a over the library's sources (paths and bytes, sorted), so a
/// result identifies the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn stamp(args: &Args, threads: usize, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "mode",
            json_str(if args.trace { "traced" } else { "timed" }),
        ),
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
        ("cpu", json_str(&cpu_model())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
        ("commit", json_str(env!("PERFBENCH_COMMIT"))),
        ("source_digest", json_str(&source_digest(Path::new(".")))),
    ];
    for (k, v) in &outcome.notes {
        fields.push((k, v.to_string()));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Generates the inputs and runs one workload from round `first_round`
/// on; the caller owns `work`, where the trace is written unless a
/// process of the same run already did.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    work: &Path,
    first_round: u64,
) -> Outcome {
    let threads = threads();
    let trace_path = work.join("replay.trace");
    let Some(workload) = workloads::generate(name, seed, scale, threads, &trace_path) else {
        let mut o = Outcome::default();
        o.errors.push(format!("unknown workload `{name}`"));
        return o;
    };
    let written = if trace_path.exists() {
        Ok(())
    } else {
        workloads::write_trace(&trace_path, seed, workload.trace_jobs)
    };
    if let Err(e) = written {
        let mut o = Outcome::default();
        o.errors.push(format!("writing the trace: {e}"));
        return o;
    }
    let round = |k: u64| {
        let seed = match workload.mode {
            workloads::Mode::Local => seed ^ (first_round + k).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            workloads::Mode::Served => seed,
        };
        workloads::generate(name, seed, scale, threads, &trace_path).expect("known workload")
    };
    let ctx = Ctx {
        workload: &workload,
        round: &round,
        threads,
        seconds,
        work,
    };
    if trace {
        bench::traced(&ctx)
    } else {
        bench::untraced(&ctx)
    }
}

/// Processes an untraced run is split across. Each process lands in its
/// own speed state on a shared host (set-up times of one process sit
/// within a few percent of each other while two processes can differ
/// by 1.5x), so a run averages over several.
const PARTS: u64 = 3;

/// Combines the children's result lines: counts add up, every metric is
/// the mean over processes except the energy ratios, which belong to
/// the run's round 0 and so to the first child.
fn combine(children: &[String]) -> Outcome {
    let mut out = Outcome::default();
    let mut by_name: Vec<(String, Vec<f64>, String)> = Vec::new();
    for (i, text) in children.iter().enumerate() {
        let mut lines = text.lines().rev();
        let Some(result) = lines.next().filter(|l| l.starts_with("{\"correct\": ")) else {
            out.errors.push(format!("process {i} printed no result"));
            out.failed += 1;
            continue;
        };
        if !result.starts_with("{\"correct\": true") {
            out.errors
                .push(format!("process {i} failed its correctness gate"));
        }
        let count = |key: &str| {
            let at = result
                .find(&format!("\"{key}\": "))
                .map_or(0, |p| p + key.len() + 4);
            result[at..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse::<u64>().ok())
                .unwrap_or(0)
        };
        out.attempted += count("attempted");
        out.failed += count("failed");
        for entry in result.split("}, \"").map(|e| e.trim_start_matches('"')) {
            let Some((name, rest)) = entry.rsplit_once("\": {\"value\": ") else {
                continue;
            };
            let name = name.rsplit('"').next().unwrap_or(name).to_string();
            let Some((value, unit)) = rest.split_once(", \"unit\": \"") else {
                continue;
            };
            let unit = unit.split('"').next().unwrap_or("").to_string();
            let value: f64 = value.parse().unwrap_or(f64::NAN);
            match by_name.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, values, _)) => values.push(value),
                None => by_name.push((name, vec![value], unit)),
            }
        }
        for line in lines.filter_map(|l| l.strip_prefix("note ")) {
            let Some((key, v)) = line.split_once(' ') else {
                continue;
            };
            let Some(key) = ["rounds", "submit_samples"].into_iter().find(|n| *n == key) else {
                continue;
            };
            let v: f64 = v.parse().unwrap_or(0.0);
            match out.notes.iter_mut().find(|(n, _)| *n == key) {
                Some((_, total)) => *total += v,
                None => out.notes.push((key, v)),
            }
        }
    }
    for (name, values, unit) in by_name {
        let value = if name.ends_with("_energy_ratio") {
            values[0]
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        out.push(&name, value, &unit);
    }
    out
}

/// The untraced run: `PARTS` child processes of this binary, run one
/// after another, each measuring `1/PARTS` of the time on its own
/// rounds.
fn in_processes(args: &Args, work: &Path) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            let mut o = Outcome::default();
            o.errors.push(format!("cannot find this executable: {e}"));
            return o;
        }
    };
    let mut children = Vec::new();
    for part in 0..PARTS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PARTS as f64).to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .arg("--work")
            .arg(work)
            .stderr(std::process::Stdio::inherit())
            .output();
        match output {
            Ok(o) if o.status.success() => {
                children.push(String::from_utf8_lossy(&o.stdout).into_owned());
            }
            Ok(o) => children.push(format!("exit status {}", o.status)),
            Err(e) => children.push(format!("cannot start: {e}")),
        }
    }
    combine(&children)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    }
    if let (Some(part), Some(work)) = (args.part, &args.work) {
        // One slice of an untraced run; the parent reads this output.
        let outcome = run(
            &args.workload,
            args.seed,
            args.seconds,
            false,
            Scale::Full,
            work,
            part * 1_000_000,
        );
        for e in &outcome.errors {
            eprintln!("perfbench: correctness gate: {e}");
        }
        for (k, v) in &outcome.notes {
            println!("note {k} {v}");
        }
        println!("{}", result_line(&outcome));
        return ExitCode::SUCCESS;
    }
    // Scratch inputs (the trace, server checkpoints) live under the
    // benchmark's own ignored work directory and go when the run ends.
    let work = PathBuf::from("perfbench")
        .join(".work")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let outcome = if args.trace {
        run(
            &args.workload,
            args.seed,
            args.seconds,
            true,
            Scale::Full,
            &work,
            0,
        )
    } else {
        in_processes(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    for e in &outcome.errors {
        eprintln!("perfbench: correctness gate: {e}");
    }
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", stamp(&args, threads(), &outcome));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one array of `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\": [")).expect("metric array");
        let body = &text[start..start + text[start..].find(']').expect("array end")];
        let field = |obj: &str, name: &str| {
            let at = obj.find(&format!("\"{name}\": \"")).expect("field") + name.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string end")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn work_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(".work").join(format!("test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        dir
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let metrics = declared(key);
            assert!(!metrics.is_empty());
            for name in workloads::NAMES {
                let work = work_dir(&format!("{name}-{trace}"));
                let outcome = run(name, 7, 0.2, trace, Scale::Tiny, &work, 0);
                let _ = std::fs::remove_dir_all(&work);
                assert!(outcome.errors.is_empty(), "{name}: {:?}", outcome.errors);
                let line = result_line(&outcome);
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
                for (metric, unit) in &metrics {
                    let key = format!("\"{metric}\": {{\"value\": ");
                    let at = line
                        .find(&key)
                        .unwrap_or_else(|| panic!("{name}: no {metric}"));
                    let rest = &line[at + key.len()..];
                    let entry = &rest[..rest.find('}').expect("entry end")];
                    assert!(
                        entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                        "{name}: {metric} printed as {entry}"
                    );
                }
                assert_eq!(
                    outcome.metrics.len(),
                    metrics.len(),
                    "{name}: extra metrics"
                );
            }
        }
    }

    /// A small campaign's CSV, which the gate accepts as produced.
    fn sample_csv() -> (String, usize) {
        let text = "acsched-scenario v1\ntaskset pair\n\
                    task a period=10 wcec=300 acec=120 bcec=30\n\
                    task b period=20 wcec=600 acec=200 bcec=60\nend\n\
                    processor p linear kappa=50 vmin=0.3 vmax=4\n\
                    schedules wcs acs\npolicy greedy\nworkload wcec\nworkload paper\n\
                    seeds 1\nhyper_periods 2\nsynthesis quick\n";
        let run = exec::run_local(text, 1).expect("sample campaign runs");
        gate::check_csv(&run.csv, run.cells.len(), 0).expect("the gate accepts real output");
        gate::check_records(&run.cells).expect("lookup partition holds");
        (run.csv, run.cells.len())
    }

    #[test]
    fn gate_trips_on_a_dropped_record() {
        let (csv, cells) = sample_csv();
        let dropped: String = csv.lines().take(cells).map(|l| format!("{l}\n")).collect();
        assert!(gate::check_csv(&dropped, cells, 0)
            .err()
            .expect("dropped record detected")
            .contains("records for"));
        assert!(gate::same_results("dropped", &csv, &dropped).is_err());
    }

    #[test]
    fn gate_trips_on_an_edited_energy() {
        let (csv, cells) = sample_csv();
        let table = gate::Table::parse(&csv).expect("parses");
        let col = table.col("mean_energy");
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        let mut row = gate::split_row(&lines[1]);
        let energy: f64 = row[col].parse().expect("energy");
        row[col] = (energy * 1.01).to_string();
        lines[1] = row.join(",");
        let edited = lines.join("\n") + "\n";
        assert!(gate::check_csv(&edited, cells, 0)
            .err()
            .expect("edited energy detected")
            .contains("does not reconcile"));
        assert!(gate::same_results("edited", &csv, &edited).is_err());
    }

    #[test]
    fn gate_trips_on_a_worst_case_miss() {
        let (csv, cells) = sample_csv();
        let table = gate::Table::parse(&csv).expect("parses");
        let (misses, workload) = (table.col("deadline_misses"), table.col("workload"));
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        let at = (1..lines.len())
            .find(|&i| gate::split_row(&lines[i])[workload] == "wcec")
            .expect("a wcec row");
        let mut row = gate::split_row(&lines[at]);
        row[misses] = "1".into();
        lines[at] = row.join(",");
        let edited = lines.join("\n") + "\n";
        assert!(gate::check_csv(&edited, cells, 0)
            .err()
            .expect("miss detected")
            .contains("worst-case"));
    }

    #[test]
    fn combine_averages_processes_and_keeps_round_zero_ratios() {
        let child = |cells: f64, ratio: f64, ok: bool| {
            format!(
                "note rounds 2\n{{\"correct\": {ok}, \"attempted\": 5, \"failed\": 0, \
                 \"metrics\": {{\"cells_per_s\": {{\"value\": {cells}, \"unit\": \"1/s\"}}, \
                 \"acs_energy_ratio\": {{\"value\": {ratio}, \"unit\": \"ratio\"}}}}}}\n"
            )
        };
        let out = combine(&[child(10.0, 0.8, true), child(20.0, 0.9, true)]);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!((out.attempted, out.failed), (10, 0));
        let got: Vec<(&str, f64, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value, m.unit.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                ("cells_per_s", 15.0, "1/s"),
                ("acs_energy_ratio", 0.8, "ratio")
            ]
        );
        assert_eq!(out.notes, [("rounds", 4.0)]);
        let bad = combine(&[child(1.0, 0.8, false), "exit status 1".into()]);
        assert_eq!(bad.errors.len(), 2);
        assert!(!result_line(&bad).starts_with("{\"correct\": true"));
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let trace = Path::new("replay.trace");
        for name in workloads::NAMES {
            let a = workloads::generate(name, 3, Scale::Full, 2, trace).expect("known");
            let b = workloads::generate(name, 3, Scale::Full, 2, trace).expect("known");
            let c = workloads::generate(name, 4, Scale::Full, 2, trace).expect("known");
            let texts = |w: &workloads::Workload| {
                w.inputs.iter().map(|i| i.text.clone()).collect::<Vec<_>>()
            };
            assert_eq!(texts(&a), texts(&b), "{name}");
            assert_ne!(texts(&a), texts(&c), "{name}");
        }
    }
}
