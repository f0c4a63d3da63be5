//! The parsed scenario model: declarations, canonical serialization and
//! materialization into an `acs-runtime` [`Campaign`].

use crate::error::ScenarioError;
use acs_core::SynthesisOptions;
use acs_model::units::{Cycles, Energy, Freq, Ticks, TimeSpan, Volt};
use acs_model::{Task, TaskGraph, TaskSet};
use acs_power::{FreqModel, LevelTable, Processor};
use acs_runtime::{
    Campaign, CampaignBuilder, PartitionHeuristic, Placement, PolicySpec, ScheduleChoice,
    SchedulingClass, WorkloadSpec,
};
use acs_sim::{ArrivalKind, ReOptConfig, SolverCache};
use acs_trace::TraceReader;
use acs_workloads::{paper_set_batch, real_life};
use std::sync::Arc;

/// One task of an inline task-set declaration. Unset optional fields
/// take the [`acs_model::TaskBuilder`] defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDecl {
    /// Task name (unique within the set).
    pub name: String,
    /// Release period in ticks.
    pub period: u64,
    /// Relative deadline in ticks (default: the period).
    pub deadline: Option<u64>,
    /// Worst-case execution cycles.
    pub wcec: f64,
    /// Average-case execution cycles (default: builder midpoint rule).
    pub acec: Option<f64>,
    /// Best-case execution cycles (default: builder rule).
    pub bcec: Option<f64>,
    /// Effective switching capacitance (default 1).
    pub c_eff: Option<f64>,
}

/// One task-set declaration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskSetDecl {
    /// Tasks written out inline (`taskset <name>` … `end`).
    Inline {
        /// Grid-row name.
        name: String,
        /// The tasks.
        tasks: Vec<TaskDecl>,
    },
    /// A named real-life set from `acs-workloads`
    /// (`taskset <name> from <cnc|gap> fmax=…`).
    RealLife {
        /// Grid-row name.
        name: String,
        /// Which set (`"cnc"` or `"gap"`).
        set: String,
        /// Maximum processor speed the WCECs are scaled against
        /// (cycles/ms).
        f_max: f64,
        /// BCEC/WCEC ratio (default 0.5).
        ratio: Option<f64>,
        /// Target worst-case utilization (default 0.7).
        util: Option<f64>,
    },
    /// A batch of paper-protocol random sets
    /// (`tasksets random tasks=… ratio=… count=… seed=… fmax=…`),
    /// expanding to `count` grid rows named
    /// `n{tasks:02}_r{ratio:.1}_s{idx:03}` via
    /// [`acs_workloads::paper_set_batch`].
    Random {
        /// Tasks per generated set.
        tasks: usize,
        /// BCEC/WCEC ratio.
        ratio: f64,
        /// Number of sets to generate.
        count: usize,
        /// Master seed; set `idx` uses generator seed `seed + idx`.
        seed: u64,
        /// Maximum processor speed for utilization scaling (cycles/ms).
        f_max: f64,
    },
    /// A recorded arrival trace replayed as the cell's release stream
    /// (`taskset <name> trace <path>`). The task set itself comes
    /// from the trace file's prologue; the set's cells replay the
    /// recorded arrivals instead of iterating the `arrivals` axis, and
    /// are restricted to single-core grids.
    Trace {
        /// Grid-row name.
        name: String,
        /// Path to the `acsched-trace v1` file, as written in the
        /// scenario (resolved relative to the working directory).
        path: String,
    },
}

/// A precedence-graph declaration (`dag <taskset>` … `end`):
/// named edges over one **inline** task set's tasks. The parser
/// validates every edge — unknown tasks, self-edges, duplicates, period
/// mismatches and cycles are rejected with the offending edge's line
/// number — and [`Scenario::materialize_task_sets`] attaches the
/// resulting [`acs_model::TaskGraph`] to the named set.
#[derive(Debug, Clone, PartialEq)]
pub struct DagDecl {
    /// Name of the (inline) task set the edges constrain.
    pub set: String,
    /// `(predecessor, successor)` task-name pairs, in declaration
    /// order.
    pub edges: Vec<(String, String)>,
}

/// A frequency–voltage law declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelDecl {
    /// `f = κ·V`.
    Linear {
        /// Proportionality constant (cycles/(ms·V)).
        kappa: f64,
    },
    /// `f = k·(V − Vth)^α / V`.
    Alpha {
        /// Device constant (cycles/ms).
        k: f64,
        /// Threshold voltage (V).
        vth: f64,
        /// Velocity-saturation exponent.
        alpha: f64,
    },
}

/// Static (leakage) power of a processor declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticPowerDecl {
    /// One value for every operating point (`static_power=0.5`).
    Uniform(f64),
    /// One value per discrete level (`static_power=0.1,0.2,0.4` with a
    /// matching `levels=` table).
    PerLevel(Vec<f64>),
}

/// One processor declaration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorDecl {
    /// Grid-column name.
    pub name: String,
    /// Frequency law.
    pub model: ModelDecl,
    /// Minimum usable voltage (V).
    pub vmin: f64,
    /// Maximum usable voltage (V).
    pub vmax: f64,
    /// Discrete level table (V), strictly increasing; `None` =
    /// continuous.
    pub levels: Option<Vec<f64>>,
    /// Per-switch transition overhead `(time_ms, energy)`; `None` =
    /// free switching.
    pub overhead: Option<(f64, f64)>,
    /// Static (leakage) power while executing, energy units per ms
    /// (`None` = the paper's lossless model).
    pub static_power: Option<StaticPowerDecl>,
    /// Idle power while not shut down, energy units per ms.
    pub idle_power: Option<f64>,
}

/// One online-policy declaration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyDecl {
    /// Full speed + idle shutdown (reference).
    NoDvs,
    /// Cycle-conserving RM (online-only baseline).
    CcRm,
    /// The schedule's static speeds, no reclamation.
    StaticSpeed,
    /// The paper's greedy slack reclamation.
    Greedy,
    /// The online re-optimizing policy; unset knobs take the
    /// [`ReOptConfig`] defaults.
    Reopt {
        /// Receding-horizon length (`0` = all live sub-instances).
        horizon: Option<usize>,
        /// Minimum relative model-energy gain before adoption.
        min_rel_gain: Option<f64>,
        /// Shared solver-cache capacity (`0` disables; default 4096).
        cache: Option<usize>,
        /// Re-solve on release boundaries.
        resolve_on_release: Option<bool>,
        /// Re-solve at hyper-period starts.
        resolve_at_start: Option<bool>,
    },
}

impl PolicyDecl {
    /// The policy's grid name (matches `Policy::name` of the built-ins).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyDecl::NoDvs => "no-dvs",
            PolicyDecl::CcRm => "ccrm",
            PolicyDecl::StaticSpeed => "static",
            PolicyDecl::Greedy => "greedy",
            PolicyDecl::Reopt { .. } => "reopt",
        }
    }

    /// Instantiates the runtime [`PolicySpec`].
    pub fn to_spec(&self) -> PolicySpec {
        self.to_spec_with(None)
    }

    /// [`PolicyDecl::to_spec`] with an optional **caller-owned** solver
    /// cache for `reopt` policies. With `Some(cache)` the declaration's
    /// own `cache=` capacity knob is ignored — the shared cache's
    /// capacity governs — which is how the campaign server keeps one
    /// process-wide cache warm across submissions. Non-`reopt` policies
    /// never consult the argument.
    pub fn to_spec_with(&self, solver_cache: Option<&Arc<SolverCache>>) -> PolicySpec {
        match self {
            PolicyDecl::NoDvs => PolicySpec::no_dvs(),
            PolicyDecl::CcRm => PolicySpec::ccrm(),
            PolicyDecl::StaticSpeed => PolicySpec::static_speed(),
            PolicyDecl::Greedy => PolicySpec::greedy(),
            PolicyDecl::Reopt {
                horizon,
                min_rel_gain,
                cache,
                resolve_on_release,
                resolve_at_start,
            } => {
                let mut cfg = ReOptConfig::default();
                if let Some(h) = horizon {
                    cfg.horizon = *h;
                }
                if let Some(g) = min_rel_gain {
                    cfg.min_rel_gain = *g;
                }
                if let Some(r) = resolve_on_release {
                    cfg.resolve_on_release = *r;
                }
                if let Some(r) = resolve_at_start {
                    cfg.resolve_at_start = *r;
                }
                match solver_cache {
                    Some(shared) => PolicySpec::reopt_with_cache(cfg, Arc::clone(shared)),
                    None => PolicySpec::reopt_with(cfg, cache.unwrap_or(4096)),
                }
            }
        }
    }
}

/// Which synthesis profile the scenario's schedules use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthProfile {
    /// [`SynthesisOptions::quick`] — fast sweeps (the builder default).
    Quick,
    /// [`SynthesisOptions::default`] — full accuracy.
    Default,
}

impl SynthProfile {
    /// The synthesis options this profile names.
    pub fn options(self) -> SynthesisOptions {
        match self {
            SynthProfile::Quick => SynthesisOptions::quick(),
            SynthProfile::Default => SynthesisOptions::default(),
        }
    }
}

/// A parsed scenario: the declarative form of a whole [`Campaign`].
///
/// Obtain one with [`Scenario::from_text`] / [`Scenario::load`],
/// inspect or edit the declarations, serialize back with
/// [`Scenario::to_text`] (canonical form; `parse → to_text → parse` is
/// a fixpoint), and materialize with [`Scenario::to_campaign`].
///
/// The header line (`acsched-scenario v1` through `v5`) is
/// informational: every directive parses under any of the five, and
/// the parsed scenario does not record which one the text used.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    /// Task-set declarations (grid rows, in order).
    pub task_sets: Vec<TaskSetDecl>,
    /// Precedence-graph declarations, at most one per task set;
    /// each attaches a validated [`TaskGraph`] to the **inline** task
    /// set it names at materialization time.
    pub dags: Vec<DagDecl>,
    /// Processor declarations (grid columns, in order).
    pub processors: Vec<ProcessorDecl>,
    /// Core-count axis; empty = single core.
    pub cores: Vec<usize>,
    /// Partitioner axis; empty = first-fit decreasing.
    pub partitioners: Vec<PartitionHeuristic>,
    /// Scheduling-class axis; empty = fixed-priority RM only.
    pub classes: Vec<SchedulingClass>,
    /// Arrival-process axis; empty = strictly periodic releases.
    /// Duplicate entries on the `arrivals` line are dropped at parse
    /// time, keeping first positions (matching `seeds`/`schedules`).
    /// Trace-backed task sets ignore this axis and replay their
    /// recorded stream.
    pub arrivals: Vec<ArrivalKind>,
    /// Placement axis; empty = partitioned dispatch only.
    /// Duplicate entries on the `placement` line are dropped at parse
    /// time, keeping first positions (matching `class`/`arrivals`).
    /// Single-core cells ignore this axis — there is nothing to place.
    pub placements: Vec<Placement>,
    /// Schedule axis; empty = the campaign builder's default.
    /// Duplicate entries on the `schedules` line are dropped at parse
    /// time, keeping first positions (matching the documented `seeds`
    /// behavior).
    pub schedules: Vec<ScheduleChoice>,
    /// Policy declarations.
    pub policies: Vec<PolicyDecl>,
    /// Workload families.
    pub workloads: Vec<WorkloadSpec>,
    /// Seed axis; empty = the campaign builder's default (`[0]`).
    pub seeds: Vec<u64>,
    /// Hyper-periods per run.
    pub hyper_periods: Option<u64>,
    /// Deadline-miss tolerance (ms).
    pub deadline_tol_ms: Option<f64>,
    /// Synthesis profile.
    pub synthesis: Option<SynthProfile>,
    /// Multi-start ACS synthesis.
    pub acs_multistart: bool,
    /// Worker threads; `None` = available parallelism.
    pub threads: Option<usize>,
}

/// The headers the parser accepts, oldest first. Each later one names
/// the format after more directives were added; none of them gates a
/// directive.
pub(crate) const HEADERS: [&str; 5] = [
    "acsched-scenario v1",
    "acsched-scenario v2",
    "acsched-scenario v3",
    "acsched-scenario v4",
    "acsched-scenario v5",
];

/// Rejects names the line-oriented, whitespace-split format cannot
/// carry through a round trip.
fn writable_name(what: &str, name: &str) -> Result<(), ScenarioError> {
    if name.is_empty()
        || name.contains('=')
        || name.starts_with('#')
        || name.chars().any(char::is_whitespace)
    {
        return Err(ScenarioError::msg(format!(
            "{what} name `{name}` is not representable in the text format (must be \
             non-empty, contain no whitespace or `=`, and not start with `#`)"
        )));
    }
    Ok(())
}

fn schedule_keyword(choice: ScheduleChoice) -> &'static str {
    match choice {
        ScheduleChoice::Unscheduled => "unscheduled",
        ScheduleChoice::Wcs => "wcs",
        ScheduleChoice::Acs => "acs",
    }
}

fn workload_keywords(spec: &WorkloadSpec) -> String {
    match spec {
        WorkloadSpec::Paper => "paper".into(),
        WorkloadSpec::Uniform => "uniform".into(),
        WorkloadSpec::ConstantAcec => "acec".into(),
        WorkloadSpec::ConstantWcec => "wcec".into(),
        WorkloadSpec::Bimodal { p_heavy } => format!("bimodal p={p_heavy}"),
    }
}

impl Scenario {
    /// Parses a scenario from its text form (see `docs/SCENARIO_FORMAT.md`).
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] with the 1-based line number of the first
    /// offending directive.
    pub fn from_text(text: &str) -> Result<Scenario, ScenarioError> {
        crate::parse::parse(text)
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// I/O failures (with the path in the message) and parse errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::msg(format!("cannot read `{}`: {e}", path.display())))?;
        // Keep the line anchor but name the file, so `acsched check
        // scenarios/*.txt` points at the broken input.
        Scenario::from_text(&text).map_err(|e| ScenarioError {
            line: e.line,
            message: format!("in `{}`: {}", path.display(), e.message),
        })
    }

    /// Serializes to the canonical text form.
    ///
    /// `from_text(&sc.to_text()?)` reproduces `sc` exactly; defaults
    /// that were not declared stay undeclared. Scenarios produced by
    /// [`Scenario::from_text`] always serialize. The first line is the
    /// oldest header whose directives cover the declarations: `dag` or
    /// `placement` → `v5`, `arrivals` or a trace set → `v4`, `class` →
    /// `v3`, `cores`, partitioners or static/idle power → `v2`, else
    /// `v1`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when a programmatically built declaration
    /// carries a name the line-oriented format cannot represent
    /// (empty, containing whitespace or `=`, or starting with `#`) —
    /// rejected here instead of silently emitting text that fails to
    /// reparse.
    pub fn to_text(&self) -> Result<String, ScenarioError> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header());
        for decl in &self.task_sets {
            match decl {
                TaskSetDecl::Inline { name, tasks } => {
                    writable_name("taskset", name)?;
                    let _ = writeln!(out, "taskset {name}");
                    for t in tasks {
                        writable_name("task", &t.name)?;
                        let _ = write!(out, "task {} period={}", t.name, t.period);
                        if let Some(d) = t.deadline {
                            let _ = write!(out, " deadline={d}");
                        }
                        let _ = write!(out, " wcec={}", t.wcec);
                        if let Some(a) = t.acec {
                            let _ = write!(out, " acec={a}");
                        }
                        if let Some(b) = t.bcec {
                            let _ = write!(out, " bcec={b}");
                        }
                        if let Some(c) = t.c_eff {
                            let _ = write!(out, " c_eff={c}");
                        }
                        out.push('\n');
                    }
                    let _ = writeln!(out, "end");
                }
                TaskSetDecl::RealLife {
                    name,
                    set,
                    f_max,
                    ratio,
                    util,
                } => {
                    writable_name("taskset", name)?;
                    writable_name("real-life set", set)?;
                    let _ = write!(out, "taskset {name} from {set} fmax={f_max}");
                    if let Some(r) = ratio {
                        let _ = write!(out, " ratio={r}");
                    }
                    if let Some(u) = util {
                        let _ = write!(out, " util={u}");
                    }
                    out.push('\n');
                }
                TaskSetDecl::Random {
                    tasks,
                    ratio,
                    count,
                    seed,
                    f_max,
                } => {
                    let _ = writeln!(
                        out,
                        "tasksets random tasks={tasks} ratio={ratio} count={count} \
                         seed={seed} fmax={f_max}"
                    );
                }
                TaskSetDecl::Trace { name, path } => {
                    writable_name("taskset", name)?;
                    writable_name("trace path", path)?;
                    let _ = writeln!(out, "taskset {name} trace {path}");
                }
            }
        }
        for dag in &self.dags {
            writable_name("dag taskset", &dag.set)?;
            let _ = writeln!(out, "dag {}", dag.set);
            for (from, to) in &dag.edges {
                for name in [from, to] {
                    writable_name("edge task", name)?;
                    if name.contains("->") {
                        return Err(ScenarioError::msg(format!(
                            "edge task name `{name}` is not representable in an `edge` \
                             line (contains `->`)"
                        )));
                    }
                }
                let _ = writeln!(out, "edge {from}->{to}");
            }
            let _ = writeln!(out, "end");
        }
        for p in &self.processors {
            writable_name("processor", &p.name)?;
            match p.model {
                ModelDecl::Linear { kappa } => {
                    let _ = write!(out, "processor {} linear kappa={kappa}", p.name);
                }
                ModelDecl::Alpha { k, vth, alpha } => {
                    let _ = write!(
                        out,
                        "processor {} alpha k={k} vth={vth} alpha={alpha}",
                        p.name
                    );
                }
            }
            let _ = write!(out, " vmin={} vmax={}", p.vmin, p.vmax);
            if let Some(levels) = &p.levels {
                let joined: Vec<String> = levels.iter().map(f64::to_string).collect();
                let _ = write!(out, " levels={}", joined.join(","));
            }
            if let Some((time_ms, energy)) = p.overhead {
                let _ = write!(out, " overhead={time_ms}:{energy}");
            }
            match &p.static_power {
                Some(StaticPowerDecl::Uniform(power)) => {
                    let _ = write!(out, " static_power={power}");
                }
                Some(StaticPowerDecl::PerLevel(powers)) => {
                    let joined: Vec<String> = powers.iter().map(f64::to_string).collect();
                    let _ = write!(out, " static_power={}", joined.join(","));
                }
                None => {}
            }
            if let Some(power) = p.idle_power {
                let _ = write!(out, " idle_power={power}");
            }
            out.push('\n');
        }
        if self.cores.is_empty() && !self.partitioners.is_empty() {
            return Err(ScenarioError::msg(
                "partitioners are declared on the `cores` directive; \
                 declare at least one core count"
                    .to_string(),
            ));
        }
        if !self.cores.is_empty() {
            let counts: Vec<String> = self.cores.iter().map(usize::to_string).collect();
            let _ = write!(out, "cores {}", counts.join(" "));
            if !self.partitioners.is_empty() {
                let parts: Vec<&str> = self.partitioners.iter().map(|h| h.label()).collect();
                let _ = write!(out, " partition={}", parts.join(","));
            }
            out.push('\n');
        }
        if !self.classes.is_empty() {
            let labels: Vec<&str> = self.classes.iter().map(|c| c.label()).collect();
            let _ = writeln!(out, "class {}", labels.join(","));
        }
        if !self.arrivals.is_empty() {
            let labels: Vec<&str> = self.arrivals.iter().map(|a| a.label()).collect();
            let _ = writeln!(out, "arrivals {}", labels.join(","));
        }
        if !self.placements.is_empty() {
            let labels: Vec<&str> = self.placements.iter().map(|p| p.label()).collect();
            let _ = writeln!(out, "placement {}", labels.join(","));
        }
        if !self.schedules.is_empty() {
            let kws: Vec<&str> = self
                .schedules
                .iter()
                .map(|c| schedule_keyword(*c))
                .collect();
            let _ = writeln!(out, "schedules {}", kws.join(" "));
        }
        for p in &self.policies {
            let _ = write!(out, "policy {}", p.name());
            if let PolicyDecl::Reopt {
                horizon,
                min_rel_gain,
                cache,
                resolve_on_release,
                resolve_at_start,
            } = p
            {
                if let Some(h) = horizon {
                    let _ = write!(out, " horizon={h}");
                }
                if let Some(g) = min_rel_gain {
                    let _ = write!(out, " min_rel_gain={g}");
                }
                if let Some(c) = cache {
                    let _ = write!(out, " cache={c}");
                }
                if let Some(r) = resolve_on_release {
                    let _ = write!(out, " resolve_on_release={}", if *r { "on" } else { "off" });
                }
                if let Some(r) = resolve_at_start {
                    let _ = write!(out, " resolve_at_start={}", if *r { "on" } else { "off" });
                }
            }
            out.push('\n');
        }
        for w in &self.workloads {
            let _ = writeln!(out, "workload {}", workload_keywords(w));
        }
        if !self.seeds.is_empty() {
            let joined: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "seeds {}", joined.join(" "));
        }
        if let Some(h) = self.hyper_periods {
            let _ = writeln!(out, "hyper_periods {h}");
        }
        if let Some(t) = self.deadline_tol_ms {
            let _ = writeln!(out, "deadline_tol_ms {t}");
        }
        match self.synthesis {
            Some(SynthProfile::Quick) => {
                let _ = writeln!(out, "synthesis quick");
            }
            Some(SynthProfile::Default) => {
                let _ = writeln!(out, "synthesis default");
            }
            None => {}
        }
        if self.acs_multistart {
            let _ = writeln!(out, "acs_multistart on");
        }
        if let Some(t) = self.threads {
            let _ = writeln!(out, "threads {t}");
        }
        Ok(out)
    }

    /// The oldest header whose directives cover the declarations, which
    /// [`Scenario::to_text`] writes so that canonical text stays readable
    /// by any older `acsched` that can run it.
    fn header(&self) -> &'static str {
        let traced = self
            .task_sets
            .iter()
            .any(|d| matches!(d, TaskSetDecl::Trace { .. }));
        let leaky = self
            .processors
            .iter()
            .any(|p| p.static_power.is_some() || p.idle_power.is_some());
        let version = if !self.dags.is_empty() || !self.placements.is_empty() {
            5
        } else if traced || !self.arrivals.is_empty() {
            4
        } else if !self.classes.is_empty() {
            3
        } else if leaky || !self.cores.is_empty() || !self.partitioners.is_empty() {
            2
        } else {
            1
        };
        HEADERS[version - 1]
    }

    /// Materializes the task-set declarations into named [`TaskSet`]s,
    /// in grid-row order (`Random` declarations expand to `count` rows;
    /// generation failures are skipped with a stderr note, matching the
    /// paper protocol's per-set accounting).
    ///
    /// # Errors
    ///
    /// Any model/workload invariant violation, with the declaration
    /// named in the message.
    pub fn materialize_task_sets(&self) -> Result<Vec<(String, TaskSet)>, ScenarioError> {
        let mut out = Vec::new();
        for decl in &self.task_sets {
            match decl {
                TaskSetDecl::Inline { name, tasks } => {
                    let ctx = |e: &dyn std::fmt::Display| {
                        ScenarioError::msg(format!("taskset `{name}`: {e}"))
                    };
                    let built: Vec<Task> = tasks
                        .iter()
                        .map(|t| {
                            let mut b = Task::builder(&t.name, Ticks::new(t.period))
                                .wcec(Cycles::from_cycles(t.wcec));
                            if let Some(d) = t.deadline {
                                b = b.deadline(Ticks::new(d));
                            }
                            if let Some(a) = t.acec {
                                b = b.acec(Cycles::from_cycles(a));
                            }
                            if let Some(bc) = t.bcec {
                                b = b.bcec(Cycles::from_cycles(bc));
                            }
                            if let Some(c) = t.c_eff {
                                b = b.c_eff(c);
                            }
                            b.build()
                        })
                        .collect::<Result<_, _>>()
                        .map_err(|e| ctx(&e))?;
                    out.push((name.clone(), TaskSet::new(built).map_err(|e| ctx(&e))?));
                }
                TaskSetDecl::RealLife {
                    name,
                    set,
                    f_max,
                    ratio,
                    util,
                } => {
                    let ts = real_life(
                        set,
                        Freq::from_cycles_per_ms(*f_max),
                        ratio.unwrap_or(0.5),
                        util.unwrap_or(0.7),
                    )
                    .map_err(|e| ScenarioError::msg(format!("taskset `{name}`: {e}")))?;
                    out.push((name.clone(), ts));
                }
                TaskSetDecl::Random {
                    tasks,
                    ratio,
                    count,
                    seed,
                    f_max,
                } => {
                    out.extend(paper_set_batch(
                        *tasks,
                        *ratio,
                        *count,
                        *seed,
                        Freq::from_cycles_per_ms(*f_max),
                    ));
                }
                TaskSetDecl::Trace { name, path } => {
                    let reader = TraceReader::open(path).map_err(|e| {
                        ScenarioError::msg(format!("taskset `{name}`: trace `{path}`: {e}"))
                    })?;
                    out.push((name.clone(), reader.set().clone()));
                }
            }
        }
        // Attach declared precedence graphs. The parser already
        // validated edges against the inline declarations, so failures
        // here only reach programmatically built scenarios.
        for dag in &self.dags {
            let slot = out
                .iter_mut()
                .find(|(name, _)| *name == dag.set)
                .ok_or_else(|| {
                    ScenarioError::msg(format!(
                        "dag `{}`: no task set of that name to attach to",
                        dag.set
                    ))
                })?;
            let graph = TaskGraph::new(&slot.1, dag.edges.iter().map(|(a, b)| (a, b)))
                .map_err(|e| ScenarioError::msg(format!("dag `{}`: {e}", dag.set)))?;
            slot.1 = slot.1.clone().with_graph(graph);
        }
        Ok(out)
    }

    /// The `(name, path)` pairs of every `taskset … trace` declaration,
    /// in declaration order. Used by `acsched check` to report trace
    /// fingerprints and by the campaign server to fold trace file
    /// contents into the submission fingerprint.
    pub fn trace_paths(&self) -> Vec<(String, String)> {
        self.task_sets
            .iter()
            .filter_map(|d| match d {
                TaskSetDecl::Trace { name, path } => Some((name.clone(), path.clone())),
                _ => None,
            })
            .collect()
    }

    /// Materializes the processor declarations, in grid-column order.
    ///
    /// # Errors
    ///
    /// Any power-model invariant violation, with the declaration named
    /// in the message.
    pub fn materialize_processors(&self) -> Result<Vec<(String, Processor)>, ScenarioError> {
        let mut out = Vec::new();
        for decl in &self.processors {
            let ctx = |e: &dyn std::fmt::Display| {
                ScenarioError::msg(format!("processor `{}`: {e}", decl.name))
            };
            let model = match decl.model {
                ModelDecl::Linear { kappa } => FreqModel::linear(kappa).map_err(|e| ctx(&e))?,
                ModelDecl::Alpha { k, vth, alpha } => {
                    FreqModel::alpha(k, Volt::from_volts(vth), alpha).map_err(|e| ctx(&e))?
                }
            };
            let mut builder = Processor::builder(model)
                .vmin(Volt::from_volts(decl.vmin))
                .vmax(Volt::from_volts(decl.vmax));
            if let Some(levels) = &decl.levels {
                let table = LevelTable::new(levels.iter().map(|v| Volt::from_volts(*v)).collect())
                    .map_err(|e| ctx(&e))?;
                builder = builder.discrete_levels(table);
            }
            if let Some((time_ms, energy)) = decl.overhead {
                builder = builder.transition_overhead(acs_power::TransitionOverhead {
                    time: TimeSpan::from_ms(time_ms),
                    energy: Energy::from_units(energy),
                });
            }
            match &decl.static_power {
                Some(StaticPowerDecl::Uniform(power)) => {
                    builder = builder.static_power(*power);
                }
                Some(StaticPowerDecl::PerLevel(powers)) => {
                    // Accounting uses the per-level values; the scalar
                    // model (which `critical_speed` derives from) is set
                    // to their minimum — the guaranteed leakage floor,
                    // so the dispatch floor never over-raises.
                    let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
                    builder = builder.level_static_power(powers.clone()).static_power(min);
                }
                None => {}
            }
            if let Some(power) = decl.idle_power {
                builder = builder.idle_power(power);
            }
            out.push((decl.name.clone(), builder.build().map_err(|e| ctx(&e))?));
        }
        Ok(out)
    }

    /// Assembles a [`CampaignBuilder`] with every declared axis and
    /// option applied — callers may still override (e.g. the CLI's
    /// `--threads`) before [`build`](CampaignBuilder::build).
    ///
    /// # Errors
    ///
    /// Materialization errors (see [`Scenario::materialize_task_sets`] /
    /// [`Scenario::materialize_processors`]).
    pub fn campaign_builder(&self) -> Result<CampaignBuilder, ScenarioError> {
        self.campaign_builder_with_cache(None)
    }

    /// [`Scenario::campaign_builder`] with an optional shared solver
    /// cache wired into every `reopt` policy (see
    /// [`PolicyDecl::to_spec_with`]) — the campaign server passes its
    /// process-wide cache here so repeated submissions hit warm solves.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::campaign_builder`].
    pub fn campaign_builder_with_cache(
        &self,
        solver_cache: Option<&Arc<SolverCache>>,
    ) -> Result<CampaignBuilder, ScenarioError> {
        let mut b = Campaign::builder();
        let traced: std::collections::HashMap<String, String> =
            self.trace_paths().into_iter().collect();
        for (name, set) in self.materialize_task_sets()? {
            match traced.get(&name) {
                Some(path) => b = b.task_set_traced(name, set, path.clone()),
                None => b = b.task_set(name, set),
            }
        }
        for (name, cpu) in self.materialize_processors()? {
            b = b.processor(name, cpu);
        }
        if !self.cores.is_empty() {
            b = b.cores(self.cores.iter().copied());
        }
        if !self.partitioners.is_empty() {
            b = b.partitioners(self.partitioners.iter().copied());
        }
        if !self.classes.is_empty() {
            b = b.classes(self.classes.iter().copied());
        }
        if !self.arrivals.is_empty() {
            b = b.arrivals(self.arrivals.iter().copied());
        }
        if !self.placements.is_empty() {
            b = b.placements(self.placements.iter().copied());
        }
        if !self.schedules.is_empty() {
            b = b.schedules(self.schedules.iter().copied());
        }
        for p in &self.policies {
            b = b.policy(p.to_spec_with(solver_cache));
        }
        for w in &self.workloads {
            b = b.workload(w.clone());
        }
        if !self.seeds.is_empty() {
            b = b.seeds(self.seeds.iter().copied());
        }
        if let Some(h) = self.hyper_periods {
            b = b.hyper_periods(h);
        }
        if let Some(t) = self.deadline_tol_ms {
            b = b.deadline_tol_ms(t);
        }
        if let Some(profile) = self.synthesis {
            b = b.synthesis(profile.options());
        }
        b = b.acs_multistart(self.acs_multistart);
        if let Some(t) = self.threads {
            b = b.threads(t);
        }
        Ok(b)
    }

    /// Materializes and validates the full campaign.
    ///
    /// # Errors
    ///
    /// Materialization errors plus grid-validation errors from
    /// [`CampaignBuilder::build`] (empty axes, duplicate names,
    /// schedule-required policies), re-wrapped with their message text
    /// intact.
    pub fn to_campaign(&self) -> Result<Campaign, ScenarioError> {
        self.campaign_builder()?
            .build()
            .map_err(|e| ScenarioError::msg(e.to_string()))
    }
}
