//! Aggregated campaign results.

use crate::campaign::ScheduleChoice;
use acs_model::units::Energy;
use acs_model::SchedulingClass;
use acs_sim::{improvement_over, SimReport};

macro_rules! cell_stats {
    (
        run { $($run:tt)* }
        cell { $($(#[$doc:meta])* $name:ident: $ty:ty, $fold:ident;)* }
    ) => {
        /// Aggregate statistics of one grid cell over its seeds. Every
        /// field after `per_core_mean_energy` is a `cell` counter of
        /// `acs_sim::run_counters!`, folded over the cell's runs the way
        /// that list declares: summed, or the maximum for
        /// `worst_lateness_ms`.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct CellStats {
            /// Number of simulation runs aggregated (= seed count).
            pub runs: usize,
            /// Mean total energy per run.
            pub mean_energy: Energy,
            /// Sample standard deviation of per-run energy (0 for one seed).
            pub std_energy: f64,
            /// 95th-percentile per-run energy.
            pub p95_energy: Energy,
            /// Mean dynamic (switching) energy per run — `mean_energy` minus
            /// the static and idle components.
            pub mean_dynamic_energy: Energy,
            /// Mean static (leakage) energy per run (0 on lossless processors).
            pub mean_static_energy: Energy,
            /// Mean idle energy per run (0 under the paper's shutdown
            /// assumption).
            pub mean_idle_energy: Energy,
            /// Mean total energy per core (in core order; one entry for
            /// single-core cells). Shows how the partitioner spread the load.
            pub per_core_mean_energy: Vec<f64>,
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl CellStats {
            /// Folds one run's counters into the cell's.
            pub(crate) fn absorb(&mut self, run: &SimReport) {
                $(acs_sim::fold_counter!($fold, self.$name, run.$name);)*
            }

            /// Solver-cache hit rate of this cell; `None` when the cell's
            /// policy never consulted an online solver.
            pub fn solver_cache_hit_rate(&self) -> Option<f64> {
                if self.solver_lookups == 0 {
                    None
                } else {
                    Some(self.solver_cache_hits as f64 / self.solver_lookups as f64)
                }
            }
        }
    };
}

acs_sim::run_counters!(cell_stats);

/// One grid cell: its coordinates and aggregated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Task-set name.
    pub task_set: String,
    /// Processor name.
    pub processor: String,
    /// Number of identical cores the cell ran on (1 = the classic
    /// single-processor runs).
    pub cores: usize,
    /// Partitioner label (`"ffd"`/`"bfd"`/`"wfd"`; `"-"` on single-core
    /// and global cells, where there is nothing to partition).
    pub partition: String,
    /// Placement label (`"partitioned"`/`"global"`; `"-"` on
    /// single-core cells, where the placements coincide).
    pub placement: String,
    /// Scheduling class the cell's dispatcher ran
    /// (`FixedPriorityRm` on classic grids).
    pub class: SchedulingClass,
    /// Schedule the cell ran under.
    pub schedule: ScheduleChoice,
    /// Policy name.
    pub policy: String,
    /// Workload-family name.
    pub workload: String,
    /// Arrival-stream label (`"periodic"` on classic grids;
    /// `"sporadic"`, `"poisson"`, `"mmpp:light|bursty|heavy"` on
    /// generated streams; `"trace"` on trace-backed sets).
    pub arrivals: String,
    /// Aggregated statistics, or the first failure message.
    pub outcome: Result<CellStats, String>,
}

impl CellReport {
    /// The cell's stats when it succeeded.
    pub fn stats(&self) -> Option<&CellStats> {
        self.outcome.as_ref().ok()
    }
}

/// The aggregate outcome of a [`Campaign`](crate::Campaign) run.
///
/// Cells appear in deterministic grid order (independent of thread
/// count); two runs of the same campaign produce equal reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    cells: Vec<CellReport>,
}

impl CampaignReport {
    pub(crate) fn new(cells: Vec<CellReport>) -> Self {
        CampaignReport { cells }
    }

    /// All cells in grid order.
    pub fn cells(&self) -> &[CellReport] {
        &self.cells
    }

    /// Cells that failed (synthesis or simulation), with messages.
    pub fn failures(&self) -> impl Iterator<Item = (&CellReport, &str)> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().err().map(|e| (c, e.as_str())))
    }

    /// Finds the first cell matching the given coordinates (on grids
    /// with a cores/partitioner/class axis, the first match in grid
    /// order — filter [`CampaignReport::cells`] directly to select a
    /// specific core count or scheduling class).
    pub fn find(
        &self,
        task_set: &str,
        processor: &str,
        schedule: ScheduleChoice,
        policy: &str,
        workload: &str,
    ) -> Option<&CellReport> {
        self.cells.iter().find(|c| {
            c.task_set == task_set
                && c.processor == processor
                && c.schedule == schedule
                && c.policy == policy
                && c.workload == workload
        })
    }

    /// Relative mean-energy improvement of the ACS cell over the WCS cell
    /// at the same (task set, processor, policy, workload) coordinates —
    /// the paper's Fig. 6 measurement. `None` unless both cells exist and
    /// succeeded.
    pub fn gain(
        &self,
        task_set: &str,
        processor: &str,
        policy: &str,
        workload: &str,
    ) -> Option<f64> {
        let wcs = self
            .find(task_set, processor, ScheduleChoice::Wcs, policy, workload)?
            .stats()?;
        let acs = self
            .find(task_set, processor, ScheduleChoice::Acs, policy, workload)?
            .stats()?;
        Some(improvement_over(wcs.mean_energy, acs.mean_energy))
    }

    /// All ACS-vs-WCS gains in the report, one per (task set, processor,
    /// policy, workload) coordinate that has both schedule cells. One
    /// keyed pass — O(cells) even on paper-scale grids.
    pub fn gains(&self) -> Vec<(&CellReport, f64)> {
        #[allow(clippy::type_complexity)]
        fn key(
            c: &CellReport,
        ) -> (
            &str,
            &str,
            usize,
            &str,
            &str,
            SchedulingClass,
            &str,
            &str,
            &str,
        ) {
            (
                &c.task_set,
                &c.processor,
                c.cores,
                &c.partition,
                &c.placement,
                c.class,
                &c.policy,
                &c.workload,
                &c.arrivals,
            )
        }
        let wcs_mean: std::collections::HashMap<_, _> = self
            .cells
            .iter()
            .filter(|c| c.schedule == ScheduleChoice::Wcs)
            .filter_map(|c| c.stats().map(|s| (key(c), s.mean_energy)))
            .collect();
        self.cells
            .iter()
            .filter(|c| c.schedule == ScheduleChoice::Acs)
            .filter_map(|c| {
                let wcs = wcs_mean.get(&key(c))?;
                let acs = c.stats()?;
                Some((c, improvement_over(*wcs, acs.mean_energy)))
            })
            .collect()
    }

    /// Relative mean-energy improvements of `candidate`-policy cells
    /// over `baseline`-policy cells at otherwise identical coordinates
    /// (task set, processor, cores, partition, class, schedule,
    /// workload, arrivals) — e.g. `policy_gains("greedy", "reopt")`
    /// measures what online re-optimization buys on top of greedy
    /// reclamation. One keyed pass, like [`CampaignReport::gains`].
    pub fn policy_gains(&self, baseline: &str, candidate: &str) -> Vec<(&CellReport, f64)> {
        #[allow(clippy::type_complexity)]
        fn key(
            c: &CellReport,
        ) -> (
            &str,
            &str,
            usize,
            &str,
            &str,
            SchedulingClass,
            ScheduleChoice,
            &str,
            &str,
        ) {
            (
                &c.task_set,
                &c.processor,
                c.cores,
                &c.partition,
                &c.placement,
                c.class,
                c.schedule,
                &c.workload,
                &c.arrivals,
            )
        }
        let base_mean: std::collections::HashMap<_, _> = self
            .cells
            .iter()
            .filter(|c| c.policy == baseline)
            .filter_map(|c| c.stats().map(|s| (key(c), s.mean_energy)))
            .collect();
        self.cells
            .iter()
            .filter(|c| c.policy == candidate)
            .filter_map(|c| {
                let base = base_mean.get(&key(c))?;
                let cand = c.stats()?;
                Some((c, improvement_over(*base, cand.mean_energy)))
            })
            .collect()
    }

    /// Total deadline misses charged to aperiodic (arrival-stream or
    /// trace) jobs across all successful cells.
    pub fn total_misses_aperiodic(&self) -> usize {
        self.cells
            .iter()
            .filter_map(|c| c.stats())
            .map(|s| s.misses_aperiodic)
            .sum()
    }

    /// Total deadline misses across all successful cells.
    pub fn total_deadline_misses(&self) -> usize {
        self.cells
            .iter()
            .filter_map(|c| c.stats())
            .map(|s| s.deadline_misses)
            .sum()
    }

    /// Campaign-wide solver-cache hit rate (hits / lookups over every
    /// successful cell); `None` when no cell ran an online re-optimizing
    /// policy. High rates mean repeated boundary states across seeds and
    /// hyper-periods were served from the shared cache instead of the
    /// solver.
    pub fn solver_cache_hit_rate(&self) -> Option<f64> {
        let (hits, lookups) = self
            .cells
            .iter()
            .filter_map(|c| c.stats())
            .fold((0usize, 0usize), |(h, l), s| {
                (h + s.solver_cache_hits, l + s.solver_lookups)
            });
        if lookups == 0 {
            None
        } else {
            Some(hits as f64 / lookups as f64)
        }
    }

    /// Renders an aligned text table of every cell. The `cores` column
    /// shows `N:partitioner` on multicore cells; the static/idle energy
    /// columns appear only when some cell actually drew leakage or idle
    /// power.
    pub fn to_table(&self) -> String {
        let leaky =
            self.cells.iter().filter_map(|c| c.stats()).any(|s| {
                s.mean_static_energy.as_units() > 0.0 || s.mean_idle_energy.as_units() > 0.0
            });
        // The arrivals column appears only when some cell departs from
        // the classic periodic releases, keeping pre-arrivals tables
        // unchanged.
        let aperiodic = self.cells.iter().any(|c| c.arrivals != "periodic");
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<12} {:>7} {:>5} {:>5} {:<10} {:<16} {:>12} {:>10} {:>12} {:>7}",
            "task set",
            "processor",
            "cores",
            "class",
            "sched",
            "policy",
            "workload",
            "mean E",
            "std E",
            "p95 E",
            "misses"
        ));
        if leaky {
            out.push_str(&format!(" {:>12} {:>12}", "static E", "idle E"));
        }
        if aperiodic {
            out.push_str(&format!(" {:<11} {:>9}", "arrivals", "misses_ap"));
        }
        out.push('\n');
        for c in &self.cells {
            let cores = if c.cores == 1 {
                "1".to_string()
            } else if c.placement == "global" {
                format!("{}:global", c.cores)
            } else {
                format!("{}:{}", c.cores, c.partition)
            };
            match &c.outcome {
                Ok(s) => {
                    out.push_str(&format!(
                        "{:<18} {:<12} {:>7} {:>5} {:>5} {:<10} {:<16} {:>12.1} {:>10.1} \
                         {:>12.1} {:>7}",
                        c.task_set,
                        c.processor,
                        cores,
                        c.class.label(),
                        c.schedule.label(),
                        c.policy,
                        c.workload,
                        s.mean_energy.as_units(),
                        s.std_energy,
                        s.p95_energy.as_units(),
                        s.deadline_misses,
                    ));
                    if leaky {
                        out.push_str(&format!(
                            " {:>12.1} {:>12.1}",
                            s.mean_static_energy.as_units(),
                            s.mean_idle_energy.as_units()
                        ));
                    }
                    if aperiodic {
                        out.push_str(&format!(" {:<11} {:>9}", c.arrivals, s.misses_aperiodic));
                    }
                    out.push('\n');
                }
                Err(e) => out.push_str(&format!(
                    "{:<18} {:<12} {:>7} {:>5} {:>5} {:<10} {:<16} FAILED: {}\n",
                    c.task_set,
                    c.processor,
                    cores,
                    c.class.label(),
                    c.schedule.label(),
                    c.policy,
                    c.workload,
                    e,
                )),
            }
        }
        if let Some(rate) = self.solver_cache_hit_rate() {
            let (hits, lookups, resolves) = self.cells.iter().filter_map(|c| c.stats()).fold(
                (0usize, 0usize, 0usize),
                |(h, l, r), s| {
                    (
                        h + s.solver_cache_hits,
                        l + s.solver_lookups,
                        r + s.boundary_resolves,
                    )
                },
            );
            out.push_str(&format!(
                "solver cache: {hits}/{lookups} hits ({:.1}%), {resolves} boundary re-solves\n",
                100.0 * rate
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(mean: f64) -> CellStats {
        CellStats {
            runs: 2,
            mean_energy: Energy::from_units(mean),
            p95_energy: Energy::from_units(mean),
            mean_dynamic_energy: Energy::from_units(mean),
            per_core_mean_energy: vec![mean],
            jobs_completed: 10,
            ..CellStats::default()
        }
    }

    fn cell(schedule: ScheduleChoice, mean: f64) -> CellReport {
        CellReport {
            task_set: "s".into(),
            processor: "p".into(),
            cores: 1,
            partition: "-".into(),
            placement: "-".into(),
            class: SchedulingClass::FixedPriorityRm,
            schedule,
            policy: "greedy".into(),
            workload: "paper-normal".into(),
            arrivals: "periodic".into(),
            outcome: Ok(stats(mean)),
        }
    }

    #[test]
    fn gains_do_not_pair_across_arrivals() {
        // A sporadic ACS cell must not pair with a periodic WCS cell.
        let mut sporadic_acs = cell(ScheduleChoice::Acs, 70.0);
        sporadic_acs.arrivals = "sporadic".into();
        let report = CampaignReport::new(vec![cell(ScheduleChoice::Wcs, 100.0), sporadic_acs]);
        assert!(report.gains().is_empty());
        // The arrivals column renders only on aperiodic grids.
        let table = report.to_table();
        assert!(table.contains("arrivals"), "{table}");
        assert!(table.contains("sporadic"), "{table}");
        let periodic_only = CampaignReport::new(vec![cell(ScheduleChoice::Wcs, 100.0)]);
        assert!(!periodic_only.to_table().contains("arrivals"));
    }

    #[test]
    fn gain_pairs_wcs_and_acs_cells() {
        let report = CampaignReport::new(vec![
            cell(ScheduleChoice::Wcs, 100.0),
            cell(ScheduleChoice::Acs, 80.0),
        ]);
        let g = report.gain("s", "p", "greedy", "paper-normal").unwrap();
        assert!((g - 0.2).abs() < 1e-12);
        assert_eq!(report.gains().len(), 1);
        assert_eq!(report.total_deadline_misses(), 0);
        assert!(report.gain("s", "p", "static", "paper-normal").is_none());
    }

    #[test]
    fn gains_do_not_pair_across_classes() {
        // An EDF ACS cell must not pair with an RM WCS cell.
        let mut edf_acs = cell(ScheduleChoice::Acs, 70.0);
        edf_acs.class = SchedulingClass::Edf;
        let report = CampaignReport::new(vec![cell(ScheduleChoice::Wcs, 100.0), edf_acs]);
        assert!(report.gains().is_empty());
        // Same-class pairs still match, per class.
        let mut edf_wcs = cell(ScheduleChoice::Wcs, 90.0);
        edf_wcs.class = SchedulingClass::Edf;
        let mut edf_acs = cell(ScheduleChoice::Acs, 45.0);
        edf_acs.class = SchedulingClass::Edf;
        let report = CampaignReport::new(vec![
            cell(ScheduleChoice::Wcs, 100.0),
            cell(ScheduleChoice::Acs, 80.0),
            edf_wcs,
            edf_acs,
        ]);
        let gains = report.gains();
        assert_eq!(gains.len(), 2);
        assert!((gains[0].1 - 0.2).abs() < 1e-12);
        assert!((gains[1].1 - 0.5).abs() < 1e-12);
        // The table renders one class column per row.
        let table = report.to_table();
        assert!(table.contains(" edf "), "{table}");
        assert!(table.contains(" rm "), "{table}");
    }

    #[test]
    fn solver_cache_hit_rate_aggregates() {
        let mut with_solver = cell(ScheduleChoice::Acs, 50.0);
        if let Ok(s) = &mut with_solver.outcome {
            s.solver_lookups = 40;
            s.solver_cache_hits = 30;
            s.boundary_resolves = 10;
        }
        let plain = cell(ScheduleChoice::Wcs, 100.0);
        assert!(plain.stats().unwrap().solver_cache_hit_rate().is_none());
        let report = CampaignReport::new(vec![plain, with_solver]);
        let rate = report.solver_cache_hit_rate().unwrap();
        assert!((rate - 0.75).abs() < 1e-12);
        let table = report.to_table();
        assert!(
            table.contains("solver cache: 30/40 hits (75.0%)"),
            "{table}"
        );
        // Without any solver cells there is no footer.
        let silent = CampaignReport::new(vec![cell(ScheduleChoice::Wcs, 1.0)]);
        assert!(silent.solver_cache_hit_rate().is_none());
        assert!(!silent.to_table().contains("solver cache"));
    }

    #[test]
    fn failures_listed_and_rendered() {
        let mut bad = cell(ScheduleChoice::Wcs, 0.0);
        bad.outcome = Err("synthesis: boom".into());
        let report = CampaignReport::new(vec![bad, cell(ScheduleChoice::Acs, 50.0)]);
        assert_eq!(report.failures().count(), 1);
        let table = report.to_table();
        assert!(table.contains("FAILED: synthesis: boom"));
        assert!(table.contains("greedy"));
        assert!(report.gain("s", "p", "greedy", "paper-normal").is_none());
    }
}
