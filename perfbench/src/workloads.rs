//! The four workloads, generated from the run's seed.
//!
//! Every workload is a list of scenario texts in the repository's own
//! `acsched-scenario` format, plus one `acsched-trace v1` file written by
//! [`write_trace`] for the trace-replay rows. The program only ever sees
//! these generated inputs. Each workload carries every layer — planning,
//! ReOpt, the single-core, multi-core and trace engines — but sizes them
//! so that one layer dominates its wall time; `serve_resubmit` adds the
//! server on top by submitting its scenarios over loopback.

use std::fmt::Write as _;
use std::path::Path;

use acs_trace::{builtin_task_set, ArrivalSource, Sporadic, TraceRecord, TraceWriter};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "plan_paper",
    "reopt_online",
    "engine_long",
    "serve_resubmit",
];

/// How a workload's scenarios reach the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// In-process: `Scenario::from_text` → `to_campaign` → `plan` →
    /// `run_range_with` into a `CsvSink`.
    Local,
    /// Submitted round-robin over one loopback connection to an
    /// in-process `acs-serve` server.
    Served,
}

/// One generated scenario.
#[derive(Debug, Clone)]
pub struct Input {
    /// Short label used in diagnostics.
    pub label: &'static str,
    /// Full scenario text.
    pub text: String,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub mode: Mode,
    /// Scenarios run (or submitted) in this order each round; the first
    /// is the workload's dominant one.
    pub inputs: Vec<Input>,
    /// Records in the generated trace that every trace-backed row replays.
    pub trace_jobs: u64,
}

/// Size knob: `Full` for measurement, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// SplitMix64: the benchmark's own seeded stream for choosing inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

const RATIOS: [f64; 3] = [0.1, 0.5, 0.9];
const LINEAR: &str = "processor linear linear kappa=50 vmin=0.3 vmax=4";

/// The period list of an `n`-task set. Periods are mixed (non-harmonic)
/// but fixed per size, so the hyper-period (at most 120 ms) and with it
/// the expansion's sub-instance count are the same for every seed: the
/// seed moves the utilization shares and the draws, not the problem
/// size.
fn periods(n: u64) -> &'static [u64] {
    match n {
        0..=2 => &[10, 15],
        3 => &[10, 15, 30],
        4 => &[10, 15, 20, 30],
        5 => &[10, 15, 20, 30, 60],
        _ => &[10, 15, 20, 30, 40, 60],
    }
}

/// A seeded set in the paper's style: UUniFast utilization shares
/// summing to 0.7 at `f_max = 200` cycles/ms, BCEC = `ratio`·WCEC, ACEC
/// midway.
fn inline_set(rng: &mut Rng, name: &str, n: u64, ratio: f64) -> String {
    let mut s = format!("taskset {name}\n");
    let mut left = 0.7;
    for (i, &period) in periods(n).iter().enumerate() {
        let rest = periods(n).len() - i - 1;
        let share = if rest == 0 {
            left
        } else {
            let next = left * rng.unit().powf(1.0 / rest as f64);
            let share = left - next;
            left = next;
            share
        };
        // Half UUniFast, half an even split: every task keeps a share
        // of at least 0.35/n, so no seed produces a near-empty task
        // whose tiny WCEC makes the NLP much harder than its size.
        let share = 0.5 * share + 0.35 / n as f64;
        let wcec = (share * period as f64 * 200.0).round().max(1.0);
        let bcec = (ratio * wcec).round().max(1.0);
        let acec = ((wcec + bcec) / 2.0).round();
        let _ = writeln!(
            s,
            "task t{i} period={period} wcec={wcec} acec={acec} bcec={bcec}"
        );
    }
    s.push_str("end\n");
    s
}

fn draw_seeds(rng: &mut Rng, n: usize) -> String {
    let seeds: Vec<String> = (0..n).map(|_| rng.range(1, 1 << 20).to_string()).collect();
    seeds.join(" ")
}

/// The paper's Fig. 6a protocol: one seeded set per `(size, ratio)`,
/// default synthesis with ACS multistart, greedy, paper draws, a few
/// hyper-periods.
fn paper_block(rng: &mut Rng, sizes: &[u64], threads: usize) -> String {
    let mut s = String::from("acsched-scenario v1\n");
    for &n in sizes {
        for ratio in RATIOS {
            s.push_str(&inline_set(rng, &format!("n{n}_r{ratio}"), n, ratio));
        }
    }
    let _ = write!(
        s,
        "{LINEAR}\nschedules wcs acs\npolicy greedy\nworkload paper\nseeds {}\n\
         hyper_periods 3\nsynthesis default\nacs_multistart on\nthreads {threads}\n",
        draw_seeds(rng, 1)
    );
    s
}

/// Seeded mixed-period sets × {wcs, acs} × {greedy, reopt}, quick
/// synthesis: boundary re-solves dominate once `hyper_periods` grows.
fn reopt_block(
    rng: &mut Rng,
    sizes: &[u64],
    hyper_periods: u64,
    seeds: usize,
    threads: usize,
) -> String {
    let mut s = String::from("acsched-scenario v1\n");
    for (k, (&n, ratio)) in sizes.iter().zip(RATIOS.iter().cycle()).enumerate() {
        s.push_str(&inline_set(rng, &format!("s{k}_n{n}_r{ratio}"), n, *ratio));
    }
    let _ = write!(
        s,
        "{LINEAR}\nschedules wcs acs\npolicy greedy\npolicy reopt\nworkload paper\n\
         seeds {}\nhyper_periods {hyper_periods}\nsynthesis quick\nthreads {threads}\n",
        draw_seeds(rng, seeds)
    );
    s
}

/// The small ReOpt block other workloads carry: a fixed two-task pair,
/// greedy vs ReOpt at a short horizon, seeded draws.
fn pair_reopt_block(rng: &mut Rng, threads: usize) -> String {
    format!(
        "acsched-scenario v1
taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end
processor linear50 linear kappa=50 vmin=0.3 vmax=4
schedules wcs acs
policy greedy
policy reopt horizon=8
workload paper
seeds {}
hyper_periods 10
synthesis quick
threads {threads}
",
        draw_seeds(rng, 2)
    )
}

/// Hexad / churn / diamond-style sets (edge-free, migration-forcing,
/// precedence DAG) over every machine shape, class, placement, policy
/// and draw model, with periodic and sporadic arrivals.
fn engine_block(rng: &mut Rng, hyper_periods: u64, threads: usize) -> String {
    format!(
        "acsched-scenario v5
taskset hexad
task t1 period=10 wcec=400 acec=160 bcec=40
task t2 period=10 wcec=300 acec=120 bcec=30
task t3 period=20 wcec=600 acec=240 bcec=60
task t4 period=20 wcec=400 acec=160 bcec=40
task t5 period=40 wcec=480 acec=192 bcec=48
task t6 period=40 wcec=320 acec=128 bcec=32
end
taskset churn
task s period=20 wcec=400 acec=160 bcec=40
task l period=20 wcec=1400 acec=560 bcec=140
task w period=60 wcec=1200 acec=480 bcec=120
task c period=60 wcec=2800 acec=1120 bcec=280
end
taskset diamond
task src period=20 deadline=8 wcec=500 acec=200 bcec=50
task mid_a period=20 deadline=14 wcec=400 acec=160 bcec=40
task mid_b period=20 deadline=14 wcec=300 acec=120 bcec=30
task sink period=20 wcec=600 acec=240 bcec=60
end
dag diamond
edge src->mid_a
edge src->mid_b
edge mid_a->sink
edge mid_b->sink
end
processor linear50 linear kappa=50 vmin=0.3 vmax=4
cores 1 2 4
class rm,edf
placement partitioned,global
arrivals periodic,sporadic
schedules wcs acs
policy no-dvs
policy greedy
policy ccrm
workload wcec
workload paper
seeds {} {}
hyper_periods {hyper_periods}
synthesis quick
threads {threads}
",
        rng.range(1, 1 << 20),
        rng.range(1 << 20, 1 << 21)
    )
}

/// Trace replay of the generated trace plus generated sporadic and
/// MMPP arrivals on an inline pair (single core, paper draws).
fn trace_block(rng: &mut Rng, trace: &Path, hyper_periods: u64, threads: usize) -> String {
    format!(
        "acsched-scenario v4
taskset replay trace {}
taskset pair
task ctrl period=10 wcec=300 acec=120 bcec=30
task telemetry period=20 wcec=600 acec=200 bcec=60
end
processor linear50 linear kappa=50 vmin=0.3 vmax=4
arrivals sporadic,mmpp:light
schedules wcs acs
policy greedy
policy no-dvs
workload paper
seeds {}
hyper_periods {hyper_periods}
synthesis quick
threads {threads}
",
        trace.display(),
        rng.range(1, 1 << 20)
    )
}

/// One small seeded set across many leaky processors at one
/// hyper-period: many cells of microseconds each, one plan.
fn leaky_block(rng: &mut Rng, ratio: f64, processors: usize, threads: usize) -> String {
    let mut s = String::from("acsched-scenario v2\n");
    s.push_str(&inline_set(rng, "leaky_set", 3, ratio));
    for i in 0..processors {
        let _ = writeln!(
            s,
            "processor leaky{i} linear kappa=50 vmin=0.3 vmax=4 static_power={} idle_power={}",
            rng.range(0, 60),
            rng.range(0, 5)
        );
    }
    let _ = write!(
        s,
        "schedules wcs acs\npolicy greedy\npolicy no-dvs\nworkload paper\nseeds {}\n\
         hyper_periods 1\nsynthesis quick\nthreads {threads}\n",
        draw_seeds(rng, 1)
    );
    s
}

/// Generates the named workload from `seed`. `trace` is where
/// [`write_trace`] put (or will put) the replayed trace.
pub fn generate(
    name: &str,
    seed: u64,
    scale: Scale,
    threads: usize,
    trace: &Path,
) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let tiny = scale == Scale::Tiny;
    // The small blocks every workload carries so that each layer is
    // present everywhere; the dominant block comes first.
    let small = |rng: &mut Rng, reopt: bool, engine: bool, trace_rows: bool| {
        let mut v = Vec::new();
        if reopt {
            v.push(Input {
                label: "reopt",
                text: pair_reopt_block(rng, threads),
            });
        }
        if engine {
            v.push(Input {
                label: "engine",
                text: engine_block(rng, if tiny { 1 } else { 5 }, threads),
            });
        }
        if trace_rows {
            v.push(Input {
                label: "trace",
                text: trace_block(rng, trace, if tiny { 1 } else { 5 }, threads),
            });
        }
        v
    };
    let small_trace = if tiny { 200 } else { 2_000 };
    let (mode, inputs, trace_jobs) = match name {
        "plan_paper" => {
            let sizes: &[u64] = if tiny { &[2] } else { &[6, 4] };
            let mut v = vec![Input {
                label: "paper",
                text: paper_block(&mut rng, sizes, threads),
            }];
            v.extend(small(&mut rng, true, true, true));
            (Mode::Local, v, small_trace)
        }
        "reopt_online" => {
            // More draw seeds, not more hyper-periods, add ReOpt work
            // without adding plans; six sets keep the plan makespan
            // (the first record) steady across seeds.
            let (sizes, seeds): (&[u64], usize) = if tiny {
                (&[4], 1)
            } else {
                (&[6, 6, 5, 5, 4, 4], 3)
            };
            let mut v = vec![Input {
                label: "reopt",
                text: reopt_block(&mut rng, sizes, 1, seeds, threads),
            }];
            v.extend(small(&mut rng, false, true, true));
            (Mode::Local, v, small_trace)
        }
        "engine_long" => {
            let hp = if tiny { 2 } else { 2_000 };
            let mut v = vec![
                Input {
                    label: "engine",
                    text: engine_block(&mut rng, hp, threads),
                },
                Input {
                    label: "trace",
                    text: trace_block(&mut rng, trace, hp, threads),
                },
            ];
            v.extend(small(&mut rng, true, false, false));
            (Mode::Local, v, if tiny { 500 } else { 300_000 })
        }
        "serve_resubmit" => {
            let cpus = if tiny { 2 } else { 16 };
            let mut v: Vec<Input> = RATIOS
                .iter()
                .map(|&ratio| Input {
                    label: "leaky",
                    text: leaky_block(&mut rng, ratio, cpus, threads),
                })
                .collect();
            v.extend(small(&mut rng, true, true, true));
            (Mode::Served, v, small_trace)
        }
        _ => return None,
    };
    Some(Workload {
        mode,
        inputs,
        trace_jobs,
    })
}

/// Writes a `jobs`-record trace over the trace crate's built-in 4-task
/// set: sporadic releases (never faster than the period) and per-job
/// cycles uniform in `[BCEC, WCEC]`, both drawn from `seed`, so replay
/// is feasible by construction.
pub fn write_trace(path: &Path, seed: u64, jobs: u64) -> Result<(), String> {
    let set = builtin_task_set(4);
    let mut writer = TraceWriter::create(path, &set).map_err(|e| e.to_string())?;
    let mut source = Sporadic::new(&set, seed);
    let mut rng = Rng::new(seed ^ 0xc1c1e5);
    let hyper = set.hyper_period().get() as f64;
    let mut buf = Vec::new();
    let mut written = 0;
    let mut window = 0;
    while written < jobs {
        buf.clear();
        source
            .fill_window(window, &mut buf)
            .map_err(|e| e.to_string())?;
        buf.sort_by(|a, b| a.release_ms.total_cmp(&b.release_ms));
        for job in buf.iter().take((jobs - written) as usize) {
            let task = &set.tasks()[job.task];
            let (lo, hi) = (task.bcec().as_cycles(), task.wcec().as_cycles());
            let u = rng.unit();
            writer
                .write(&TraceRecord {
                    arrival_ms: window as f64 * hyper + job.release_ms,
                    task: job.task,
                    cycles: lo + (hi - lo) * u,
                })
                .map_err(|e| e.to_string())?;
            written += 1;
        }
        window += 1;
    }
    writer.finish().map_err(|e| e.to_string())?;
    Ok(())
}
