//! # acs-bench
//!
//! Experiment harness for the `acsched` workspace: one binary per table
//! and figure of the paper (see `src/bin/`), built on the shared helpers
//! in this library. Performance is measured by the repository benchmark
//! in `perfbench/`, not here.
//!
//! All experiment binaries accept environment variables to trade runtime
//! for fidelity:
//!
//! * `ACS_PAPER_SCALE=1` — the paper's full protocol (100 task sets,
//!   1000 hyper-periods); roughly an hour of compute.
//! * `ACS_SETS=<n>` / `ACS_HYPER_PERIODS=<n>` — individual overrides.
//! * `ACS_SEED=<n>` — master seed (default 2005, the publication year).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use acs_core::{synthesize_acs_best, synthesize_wcs, StaticSchedule, SynthesisOptions};
use acs_model::units::{Energy, Freq, Volt};
use acs_model::TaskSet;
use acs_power::{FreqModel, Processor};
use acs_sim::{GreedyReclaim, SimOptions, Simulator};
use acs_workloads::TaskWorkloads;

/// Scale knobs for the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Random task sets per configuration (paper: 100).
    pub task_sets: usize,
    /// Hyper-periods simulated per task set (paper: 1000).
    pub hyper_periods: u64,
    /// Master RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Reads the scale from the environment (see crate docs).
    pub fn from_env() -> Self {
        let paper = std::env::var("ACS_PAPER_SCALE")
            .map(|v| v == "1")
            .unwrap_or(false);
        let mut s = if paper {
            Scale {
                task_sets: 100,
                hyper_periods: 1000,
                seed: 2005,
            }
        } else {
            Scale {
                task_sets: 10,
                hyper_periods: 200,
                seed: 2005,
            }
        };
        if let Ok(v) = std::env::var("ACS_SETS") {
            if let Ok(n) = v.parse() {
                s.task_sets = n;
            }
        }
        if let Ok(v) = std::env::var("ACS_HYPER_PERIODS") {
            if let Ok(n) = v.parse() {
                s.hyper_periods = n;
            }
        }
        if let Ok(v) = std::env::var("ACS_SEED") {
            if let Ok(n) = v.parse() {
                s.seed = n;
            }
        }
        s
    }
}

/// Resolves a checked-in scenario file under the workspace's
/// `scenarios/` directory (override the directory with
/// `ACS_SCENARIO_DIR` to point the figure binaries at your own files).
pub fn scenario_path(name: &str) -> std::path::PathBuf {
    match std::env::var_os("ACS_SCENARIO_DIR") {
        Some(dir) => std::path::Path::new(&dir).join(name),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(name),
    }
}

/// The experiments' reference processor: `f = 50·V` cycles/ms,
/// `V ∈ [0.3, 4] V` (the motivational example's law with a low floor so
/// slack can actually be converted into voltage reduction).
pub fn standard_cpu() -> Processor {
    Processor::builder(FreqModel::linear(50.0).expect("kappa > 0"))
        .vmin(Volt::from_volts(0.3))
        .vmax(Volt::from_volts(4.0))
        .build()
        .expect("valid processor")
}

/// Outcome of one ACS-vs-WCS runtime comparison.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Runtime energy under the WCS schedule.
    pub wcs_energy: Energy,
    /// Runtime energy under the ACS schedule.
    pub acs_energy: Energy,
    /// Relative improvement of ACS over WCS (`1 − acs/wcs`).
    pub improvement: f64,
    /// Deadline misses across both runs (must be 0).
    pub misses: usize,
}

/// Synthesizes WCS and multi-start ACS for `set`, simulates both under
/// identical workload draws with the greedy policy, and reports runtime
/// energies — the paper's Fig. 6 measurement.
///
/// # Errors
///
/// Propagates synthesis and simulation errors as strings (experiment
/// binaries just print them).
pub fn compare_acs_wcs(
    set: &TaskSet,
    cpu: &Processor,
    synth: &SynthesisOptions,
    hyper_periods: u64,
    seed: u64,
) -> Result<Comparison, String> {
    let wcs = synthesize_wcs(set, cpu, synth).map_err(|e| format!("wcs: {e}"))?;
    let acs = synthesize_acs_best(set, cpu, synth, &wcs).map_err(|e| format!("acs: {e}"))?;
    let (ew, m1) = run_greedy(set, cpu, &wcs, hyper_periods, seed)?;
    let (ea, m2) = run_greedy(set, cpu, &acs, hyper_periods, seed)?;
    Ok(Comparison {
        wcs_energy: ew,
        acs_energy: ea,
        improvement: acs_sim::improvement_over(ew, ea),
        misses: m1 + m2,
    })
}

/// Runs the greedy policy over sampled workloads, returning total energy
/// and deadline misses.
///
/// # Errors
///
/// Stringified simulator errors.
pub fn run_greedy(
    set: &TaskSet,
    cpu: &Processor,
    schedule: &StaticSchedule,
    hyper_periods: u64,
    seed: u64,
) -> Result<(Energy, usize), String> {
    let mut draws = TaskWorkloads::paper(set, seed);
    let out = Simulator::new(set, cpu, GreedyReclaim)
        .with_schedule(schedule)
        .with_options(SimOptions {
            hyper_periods,
            deadline_tol_ms: 1e-3,
            ..Default::default()
        })
        .run(&mut |t, i| draws.draw(t, i))
        .map_err(|e| e.to_string())?;
    Ok((out.report.energy, out.report.deadline_misses))
}

/// Generates `count` named paper-style random task sets for one
/// `(num_tasks, ratio)` experiment cell. Thin alias for
/// [`acs_workloads::paper_set_batch`] (the canonical implementation
/// moved there so scenario files share the exact same names and seeds).
pub fn random_paper_sets(
    num_tasks: usize,
    ratio: f64,
    count: usize,
    master_seed: u64,
    f_max: Freq,
) -> Vec<(String, TaskSet)> {
    acs_workloads::paper_set_batch(num_tasks, ratio, count, master_seed, f_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Cycles, Ticks};
    use acs_model::Task;

    #[test]
    fn scale_constructor_is_sane() {
        let s = Scale::from_env();
        assert!(s.task_sets >= 1);
        assert!(s.hyper_periods >= 1);
    }

    #[test]
    fn comparison_on_tiny_set() {
        let set = TaskSet::new(vec![Task::builder("t", Ticks::new(10))
            .wcec(Cycles::from_cycles(300.0))
            .acec(Cycles::from_cycles(120.0))
            .bcec(Cycles::from_cycles(30.0))
            .build()
            .unwrap()])
        .unwrap();
        let cpu = standard_cpu();
        let c = compare_acs_wcs(&set, &cpu, &acs_core::SynthesisOptions::quick(), 10, 1).unwrap();
        assert_eq!(c.misses, 0);
        assert!(c.improvement > -0.05, "improvement = {}", c.improvement);
    }
}
