//! The scenario text parser (format spec: `docs/SCENARIO_FORMAT.md`).

use crate::error::ScenarioError;
use crate::scenario::{
    DagDecl, ModelDecl, PolicyDecl, ProcessorDecl, Scenario, StaticPowerDecl, SynthProfile,
    TaskDecl, TaskSetDecl, HEADERS,
};
use acs_runtime::{PartitionHeuristic, Placement, ScheduleChoice, SchedulingClass, WorkloadSpec};
use acs_sim::ArrivalKind;

/// Key=value argument list of one directive, with unknown-key detection.
struct Kv<'a> {
    ln: usize,
    ctx: String,
    pairs: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Kv<'a> {
    fn new(ln: usize, ctx: impl Into<String>, tokens: &[&'a str]) -> Result<Self, ScenarioError> {
        let ctx = ctx.into();
        let mut pairs: Vec<(&'a str, &'a str, bool)> = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let Some((k, v)) = tok.split_once('=') else {
                return Err(ScenarioError::at(
                    ln,
                    format!("{ctx}: expected `key=value`, got `{tok}`"),
                ));
            };
            if pairs.iter().any(|(seen, _, _)| *seen == k) {
                return Err(ScenarioError::at(ln, format!("{ctx}: duplicate key `{k}`")));
            }
            pairs.push((k, v, false));
        }
        Ok(Kv { ln, ctx, pairs })
    }

    fn opt(&mut self, key: &str) -> Option<&'a str> {
        self.pairs
            .iter_mut()
            .find(|(k, _, _)| *k == key)
            .map(|(_, v, used)| {
                *used = true;
                *v
            })
    }

    fn req(&mut self, key: &str) -> Result<&'a str, ScenarioError> {
        self.opt(key).ok_or_else(|| {
            ScenarioError::at(
                self.ln,
                format!("{}: missing required key `{key}`", self.ctx),
            )
        })
    }

    fn f64_of(&self, key: &str, val: &str) -> Result<f64, ScenarioError> {
        let parsed: f64 = val.parse().map_err(|_| self.bad_num(key, val))?;
        if !parsed.is_finite() {
            return Err(self.bad_num(key, val));
        }
        Ok(parsed)
    }

    fn bad_num(&self, key: &str, val: &str) -> ScenarioError {
        ScenarioError::at(
            self.ln,
            format!(
                "{}: bad value for `{key}`: `{val}` is not a finite number",
                self.ctx
            ),
        )
    }

    fn req_f64(&mut self, key: &str) -> Result<f64, ScenarioError> {
        let val = self.req(key)?;
        self.f64_of(key, val)
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.opt(key) {
            Some(val) => Ok(Some(self.f64_of(key, val)?)),
            None => Ok(None),
        }
    }

    fn req_u64(&mut self, key: &str) -> Result<u64, ScenarioError> {
        let val = self.req(key)?;
        val.parse().map_err(|_| {
            ScenarioError::at(
                self.ln,
                format!(
                    "{}: bad value for `{key}`: `{val}` is not a non-negative integer",
                    self.ctx
                ),
            )
        })
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.opt(key) {
            Some(val) => Ok(Some(val.parse().map_err(|_| {
                ScenarioError::at(
                    self.ln,
                    format!(
                        "{}: bad value for `{key}`: `{val}` is not a non-negative integer",
                        self.ctx
                    ),
                )
            })?)),
            None => Ok(None),
        }
    }

    fn req_usize(&mut self, key: &str) -> Result<usize, ScenarioError> {
        Ok(self.req_u64(key)? as usize)
    }

    fn opt_usize(&mut self, key: &str) -> Result<Option<usize>, ScenarioError> {
        Ok(self.opt_u64(key)?.map(|v| v as usize))
    }

    fn opt_bool(&mut self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.opt(key) {
            Some("on") | Some("true") => Ok(Some(true)),
            Some("off") | Some("false") => Ok(Some(false)),
            Some(other) => Err(ScenarioError::at(
                self.ln,
                format!(
                    "{}: bad value for `{key}`: `{other}` (expected on/off)",
                    self.ctx
                ),
            )),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), ScenarioError> {
        if let Some((k, _, _)) = self.pairs.iter().find(|(_, _, used)| !used) {
            return Err(ScenarioError::at(
                self.ln,
                format!("{}: unknown key `{k}`", self.ctx),
            ));
        }
        Ok(())
    }
}

fn check_name(ln: usize, what: &str, name: &str) -> Result<(), ScenarioError> {
    if name.contains('=') {
        return Err(ScenarioError::at(
            ln,
            format!(
                "{what} name `{name}` looks like a key=value pair; \
                     the name comes before the options"
            ),
        ));
    }
    Ok(())
}

fn parse_task(ln: usize, tokens: &[&str]) -> Result<TaskDecl, ScenarioError> {
    let Some((name, rest)) = tokens.split_first() else {
        return Err(ScenarioError::at(ln, "task: missing name".to_string()));
    };
    check_name(ln, "task", name)?;
    let mut kv = Kv::new(ln, format!("task `{name}`"), rest)?;
    let decl = TaskDecl {
        name: name.to_string(),
        period: kv.req_u64("period")?,
        deadline: kv.opt_u64("deadline")?,
        wcec: kv.req_f64("wcec")?,
        acec: kv.opt_f64("acec")?,
        bcec: kv.opt_f64("bcec")?,
        c_eff: kv.opt_f64("c_eff")?,
    };
    kv.done()?;
    Ok(decl)
}

fn parse_levels(kv: &Kv<'_>, val: &str) -> Result<Vec<f64>, ScenarioError> {
    val.split(',')
        .map(|part| kv.f64_of("levels", part))
        .collect()
}

fn parse_overhead(kv: &Kv<'_>, val: &str) -> Result<(f64, f64), ScenarioError> {
    let Some((time_ms, energy)) = val.split_once(':') else {
        return Err(ScenarioError::at(
            kv.ln,
            format!(
                "{}: bad value for `overhead`: `{val}` (expected `time_ms:energy`)",
                kv.ctx
            ),
        ));
    };
    Ok((
        kv.f64_of("overhead", time_ms)?,
        kv.f64_of("overhead", energy)?,
    ))
}

fn parse_processor(ln: usize, tokens: &[&str]) -> Result<ProcessorDecl, ScenarioError> {
    let [name, model_kind, rest @ ..] = tokens else {
        return Err(ScenarioError::at(
            ln,
            "processor: expected `processor <name> <linear|alpha> key=value...`".to_string(),
        ));
    };
    check_name(ln, "processor", name)?;
    let mut kv = Kv::new(ln, format!("processor `{name}`"), rest)?;
    let model = match *model_kind {
        "linear" => ModelDecl::Linear {
            kappa: kv.req_f64("kappa")?,
        },
        "alpha" => ModelDecl::Alpha {
            k: kv.req_f64("k")?,
            vth: kv.req_f64("vth")?,
            alpha: kv.req_f64("alpha")?,
        },
        other => {
            return Err(ScenarioError::at(
                ln,
                format!(
                    "processor `{name}`: unknown frequency model `{other}` \
                         (expected `linear` or `alpha`)"
                ),
            ))
        }
    };
    let levels = match kv.opt("levels") {
        Some(val) => Some(parse_levels(&kv, val)?),
        None => None,
    };
    let overhead = match kv.opt("overhead") {
        Some(val) => Some(parse_overhead(&kv, val)?),
        None => None,
    };
    let static_power = match kv.opt("static_power") {
        Some(val) => Some(parse_static_power(&kv, name, val, levels.as_deref())?),
        None => None,
    };
    let idle_power = kv.opt_f64("idle_power")?;
    if let Some(p) = idle_power {
        if p < 0.0 {
            return Err(ScenarioError::at(
                ln,
                format!("processor `{name}`: idle_power must be non-negative, got {p}"),
            ));
        }
    }
    let decl = ProcessorDecl {
        name: name.to_string(),
        model,
        vmin: kv.req_f64("vmin")?,
        vmax: kv.req_f64("vmax")?,
        levels,
        overhead,
        static_power,
        idle_power,
    };
    kv.done()?;
    Ok(decl)
}

/// Parses a `static_power=` value: a single power, or one per discrete
/// level (`0.1,0.2,0.4` with a matching `levels=` table).
fn parse_static_power(
    kv: &Kv<'_>,
    name: &str,
    val: &str,
    levels: Option<&[f64]>,
) -> Result<StaticPowerDecl, ScenarioError> {
    let powers: Vec<f64> = val
        .split(',')
        .map(|part| kv.f64_of("static_power", part))
        .collect::<Result<_, _>>()?;
    if let Some(bad) = powers.iter().find(|p| **p < 0.0) {
        return Err(ScenarioError::at(
            kv.ln,
            format!("processor `{name}`: static_power must be non-negative, got {bad}"),
        ));
    }
    if powers.len() == 1 {
        return Ok(StaticPowerDecl::Uniform(powers[0]));
    }
    match levels {
        Some(table) if table.len() == powers.len() => Ok(StaticPowerDecl::PerLevel(powers)),
        Some(table) => Err(ScenarioError::at(
            kv.ln,
            format!(
                "processor `{name}`: {} static_power entries for {} levels",
                powers.len(),
                table.len()
            ),
        )),
        None => Err(ScenarioError::at(
            kv.ln,
            format!("processor `{name}`: per-level static_power needs a `levels=` table"),
        )),
    }
}

fn parse_policy(ln: usize, tokens: &[&str]) -> Result<PolicyDecl, ScenarioError> {
    let Some((kind, rest)) = tokens.split_first() else {
        return Err(ScenarioError::at(
            ln,
            "policy: missing kind (no-dvs, ccrm, static, greedy, reopt)".to_string(),
        ));
    };
    let plain = |decl: PolicyDecl| -> Result<PolicyDecl, ScenarioError> {
        if let Some(extra) = rest.first() {
            return Err(ScenarioError::at(
                ln,
                format!("policy `{kind}` takes no options, got `{extra}`"),
            ));
        }
        Ok(decl)
    };
    match *kind {
        "no-dvs" => plain(PolicyDecl::NoDvs),
        "ccrm" => plain(PolicyDecl::CcRm),
        "static" => plain(PolicyDecl::StaticSpeed),
        "greedy" => plain(PolicyDecl::Greedy),
        "reopt" => {
            let mut kv = Kv::new(ln, "policy `reopt`", rest)?;
            let decl = PolicyDecl::Reopt {
                horizon: kv.opt_usize("horizon")?,
                min_rel_gain: kv.opt_f64("min_rel_gain")?,
                cache: kv.opt_usize("cache")?,
                resolve_on_release: kv.opt_bool("resolve_on_release")?,
                resolve_at_start: kv.opt_bool("resolve_at_start")?,
            };
            kv.done()?;
            Ok(decl)
        }
        other => Err(ScenarioError::at(
            ln,
            format!("unknown policy `{other}` (known: no-dvs, ccrm, static, greedy, reopt)"),
        )),
    }
}

fn parse_workload(ln: usize, tokens: &[&str]) -> Result<WorkloadSpec, ScenarioError> {
    let Some((kind, rest)) = tokens.split_first() else {
        return Err(ScenarioError::at(
            ln,
            "workload: missing kind (paper, uniform, bimodal, acec, wcec)".to_string(),
        ));
    };
    let plain = |spec: WorkloadSpec| -> Result<WorkloadSpec, ScenarioError> {
        if let Some(extra) = rest.first() {
            return Err(ScenarioError::at(
                ln,
                format!("workload `{kind}` takes no options, got `{extra}`"),
            ));
        }
        Ok(spec)
    };
    match *kind {
        "paper" => plain(WorkloadSpec::Paper),
        "uniform" => plain(WorkloadSpec::Uniform),
        "acec" => plain(WorkloadSpec::ConstantAcec),
        "wcec" => plain(WorkloadSpec::ConstantWcec),
        "bimodal" => {
            let mut kv = Kv::new(ln, "workload `bimodal`", rest)?;
            let spec = WorkloadSpec::Bimodal {
                p_heavy: kv.req_f64("p")?,
            };
            kv.done()?;
            Ok(spec)
        }
        other => Err(ScenarioError::at(
            ln,
            format!("unknown workload `{other}` (known: paper, uniform, bimodal, acec, wcec)"),
        )),
    }
}

/// Parses a whole scenario text. See [`Scenario::from_text`].
pub(crate) fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (header_ln, header) = lines.next().ok_or_else(|| {
        ScenarioError::msg("empty scenario (missing `acsched-scenario v1|v2|v3|v4|v5` header)")
    })?;
    if !HEADERS.contains(&header) {
        return Err(ScenarioError::at(
            header_ln,
            format!(
                "unsupported header `{header}` (expected `acsched-scenario v1` \
                 through `acsched-scenario v5`)"
            ),
        ));
    }

    let mut sc = Scenario::default();
    // (opening line, name, tasks) of the inline task-set block under
    // construction, if any.
    let mut inline: Option<(usize, String, Vec<TaskDecl>)> = None;
    // (opening line, set name, edges) of the `dag` block under
    // construction, if any. Edges carry their line number so the
    // end-of-parse validation can anchor errors to the offending line.
    type EdgeDecl = (String, String, usize);
    let mut dag: Option<(usize, String, Vec<EdgeDecl>)> = None;
    // One (declaration line, edge lines) entry per `sc.dags` entry —
    // kept outside the `Scenario` (which must round-trip through
    // `to_text`, where line numbers change).
    let mut dag_lines: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut seen_singleton: Vec<&'static str> = Vec::new();
    let mut singleton = |ln: usize, key: &'static str| -> Result<(), ScenarioError> {
        if seen_singleton.contains(&key) {
            return Err(ScenarioError::at(
                ln,
                format!("directive `{key}` declared twice"),
            ));
        }
        seen_singleton.push(key);
        Ok(())
    };

    for (ln, line) in lines {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let Some((_, name, tasks)) = &mut inline {
            match tokens[0] {
                "task" => tasks.push(parse_task(ln, &tokens[1..])?),
                "end" if tokens.len() == 1 => {
                    let (_, name, tasks) = inline.take().expect("inline block is open");
                    sc.task_sets.push(TaskSetDecl::Inline { name, tasks });
                }
                other => {
                    return Err(ScenarioError::at(
                        ln,
                        format!(
                            "inside taskset `{name}`: expected `task ...` or `end`, \
                                 got `{other}`"
                        ),
                    ))
                }
            }
            continue;
        }
        if let Some((_, set, edges)) = &mut dag {
            match tokens[0] {
                "edge" => {
                    let spec = match tokens.as_slice() {
                        ["edge", spec] => *spec,
                        _ => {
                            return Err(ScenarioError::at(
                                ln,
                                format!(
                                    "dag `{set}`: expected `edge <pred>-><succ>`, got `{line}`"
                                ),
                            ))
                        }
                    };
                    let (from, to) = spec
                        .split_once("->")
                        .filter(|(f, t)| !f.is_empty() && !t.is_empty())
                        .ok_or_else(|| {
                            ScenarioError::at(
                                ln,
                                format!(
                                    "dag `{set}`: expected `edge <pred>-><succ>`, got `{spec}`"
                                ),
                            )
                        })?;
                    edges.push((from.to_string(), to.to_string(), ln));
                }
                "end" if tokens.len() == 1 => {
                    let (open_ln, set, edges) = dag.take().expect("dag block is open");
                    dag_lines.push((open_ln, edges.iter().map(|(_, _, l)| *l).collect()));
                    sc.dags.push(DagDecl {
                        set,
                        edges: edges.into_iter().map(|(f, t, _)| (f, t)).collect(),
                    });
                }
                other => {
                    return Err(ScenarioError::at(
                        ln,
                        format!("inside dag `{set}`: expected `edge a->b` or `end`, got `{other}`"),
                    ))
                }
            }
            continue;
        }
        match tokens[0] {
            "taskset" => match tokens.as_slice() {
                ["taskset", name] => {
                    check_name(ln, "taskset", name)?;
                    inline = Some((ln, name.to_string(), Vec::new()));
                }
                ["taskset", name, "trace", path] => {
                    check_name(ln, "taskset", name)?;
                    sc.task_sets.push(TaskSetDecl::Trace {
                        name: name.to_string(),
                        path: path.to_string(),
                    });
                }
                ["taskset", name, "from", set, rest @ ..] => {
                    check_name(ln, "taskset", name)?;
                    let mut kv = Kv::new(ln, format!("taskset `{name}` from {set}"), rest)?;
                    let decl = TaskSetDecl::RealLife {
                        name: name.to_string(),
                        set: set.to_string(),
                        f_max: kv.req_f64("fmax")?,
                        ratio: kv.opt_f64("ratio")?,
                        util: kv.opt_f64("util")?,
                    };
                    kv.done()?;
                    sc.task_sets.push(decl);
                }
                _ => {
                    return Err(ScenarioError::at(
                        ln,
                        "taskset: expected `taskset <name>` (inline block), \
                         `taskset <name> from <cnc|gap> fmax=...` or \
                         `taskset <name> trace <path>`"
                            .to_string(),
                    ))
                }
            },
            "tasksets" => match tokens.as_slice() {
                ["tasksets", "random", rest @ ..] => {
                    let mut kv = Kv::new(ln, "tasksets random", rest)?;
                    let decl = TaskSetDecl::Random {
                        tasks: kv.req_usize("tasks")?,
                        ratio: kv.req_f64("ratio")?,
                        count: kv.req_usize("count")?,
                        seed: kv.req_u64("seed")?,
                        f_max: kv.req_f64("fmax")?,
                    };
                    kv.done()?;
                    sc.task_sets.push(decl);
                }
                _ => {
                    return Err(ScenarioError::at(
                        ln,
                        "tasksets: expected `tasksets random tasks=... ratio=... count=... \
                         seed=... fmax=...`"
                            .to_string(),
                    ))
                }
            },
            "end" | "task" => {
                return Err(ScenarioError::at(
                    ln,
                    format!("`{}` outside a `taskset <name>` ... `end` block", tokens[0]),
                ))
            }
            "edge" => {
                return Err(ScenarioError::at(
                    ln,
                    "`edge` outside a `dag <taskset>` ... `end` block".to_string(),
                ))
            }
            "dag" => {
                let ["dag", name] = tokens.as_slice() else {
                    return Err(ScenarioError::at(
                        ln,
                        "dag: expected `dag <taskset>` (then `edge a->b` lines and `end`)"
                            .to_string(),
                    ));
                };
                check_name(ln, "dag", name)?;
                if sc.dags.iter().any(|d| d.set == *name) {
                    return Err(ScenarioError::at(
                        ln,
                        format!("dag `{name}`: declared twice"),
                    ));
                }
                dag = Some((ln, name.to_string(), Vec::new()));
            }
            "processor" => sc.processors.push(parse_processor(ln, &tokens[1..])?),
            "cores" => {
                singleton(ln, "cores")?;
                if tokens.len() == 1 {
                    return Err(ScenarioError::at(
                        ln,
                        "cores: expected at least one core count \
                         (`cores <n>... [partition=<ffd|bfd|wfd>[,...]]`)"
                            .to_string(),
                    ));
                }
                for tok in &tokens[1..] {
                    if let Some(list) = tok.strip_prefix("partition=") {
                        if !sc.partitioners.is_empty() {
                            return Err(ScenarioError::at(
                                ln,
                                "cores: duplicate key `partition`".to_string(),
                            ));
                        }
                        for part in list.split(',') {
                            let h: PartitionHeuristic = part.parse().map_err(|e: String| {
                                ScenarioError::at(ln, format!("cores: {e}"))
                            })?;
                            // Duplicates are dropped keeping the first
                            // position, matching the documented
                            // `seeds`/`schedules`/core-count behavior: a
                            // repeated heuristic would duplicate every
                            // multicore cell of the grid.
                            if !sc.partitioners.contains(&h) {
                                sc.partitioners.push(h);
                            }
                        }
                    } else {
                        let n: usize = tok.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                            ScenarioError::at(
                                ln,
                                format!("cores: `{tok}` is not a positive core count"),
                            )
                        })?;
                        sc.cores.push(n);
                    }
                }
                if sc.cores.is_empty() {
                    return Err(ScenarioError::at(
                        ln,
                        "cores: expected at least one core count before `partition=`".to_string(),
                    ));
                }
            }
            "schedules" => {
                singleton(ln, "schedules")?;
                if tokens.len() == 1 {
                    return Err(ScenarioError::at(
                        ln,
                        "schedules: expected at least one of wcs, acs, unscheduled".to_string(),
                    ));
                }
                for tok in &tokens[1..] {
                    let choice = match *tok {
                        "wcs" => ScheduleChoice::Wcs,
                        "acs" => ScheduleChoice::Acs,
                        "unscheduled" => ScheduleChoice::Unscheduled,
                        other => {
                            return Err(ScenarioError::at(
                                ln,
                                format!(
                                    "unknown schedule `{other}` \
                                         (known: wcs, acs, unscheduled)"
                                ),
                            ))
                        }
                    };
                    // Duplicates are dropped keeping the first position
                    // (matching the documented `seeds` behavior): a
                    // repeated choice would duplicate every scheduled
                    // cell of the grid.
                    if !sc.schedules.contains(&choice) {
                        sc.schedules.push(choice);
                    }
                }
            }
            "class" => {
                singleton(ln, "class")?;
                if tokens.len() == 1 {
                    return Err(ScenarioError::at(
                        ln,
                        "class: expected at least one of rm, edf \
                         (`class <rm|edf>[,...]`)"
                            .to_string(),
                    ));
                }
                for tok in tokens[1..].iter().flat_map(|t| t.split(',')) {
                    let class: SchedulingClass = tok
                        .parse()
                        .map_err(|e: String| ScenarioError::at(ln, format!("class: {e}")))?;
                    // Duplicates are dropped keeping the first position
                    // (matching the documented `seeds`/`schedules`
                    // behavior): a repeated class would duplicate every
                    // cell of the grid.
                    if !sc.classes.contains(&class) {
                        sc.classes.push(class);
                    }
                }
            }
            "arrivals" => {
                singleton(ln, "arrivals")?;
                if tokens.len() == 1 {
                    return Err(ScenarioError::at(
                        ln,
                        "arrivals: expected at least one of periodic, sporadic, poisson, \
                         mmpp[:light|bursty|heavy] (`arrivals <kind>[,...]`)"
                            .to_string(),
                    ));
                }
                for tok in tokens[1..].iter().flat_map(|t| t.split(',')) {
                    let kind: ArrivalKind = tok
                        .parse()
                        .map_err(|e: String| ScenarioError::at(ln, format!("arrivals: {e}")))?;
                    // Duplicates are dropped keeping the first position
                    // (matching `seeds`/`schedules`/`class`): a repeated
                    // kind would duplicate every cell of the grid.
                    if !sc.arrivals.contains(&kind) {
                        sc.arrivals.push(kind);
                    }
                }
            }
            "placement" => {
                singleton(ln, "placement")?;
                if tokens.len() == 1 {
                    return Err(ScenarioError::at(
                        ln,
                        "placement: expected at least one of partitioned, global \
                         (`placement <kind>[,...]`)"
                            .to_string(),
                    ));
                }
                for tok in tokens[1..].iter().flat_map(|t| t.split(',')) {
                    let p: Placement = tok
                        .parse()
                        .map_err(|e: String| ScenarioError::at(ln, format!("placement: {e}")))?;
                    // Duplicates are dropped keeping the first position
                    // (matching `class`/`arrivals`): a repeated placement
                    // would duplicate every multicore cell of the grid.
                    if !sc.placements.contains(&p) {
                        sc.placements.push(p);
                    }
                }
            }
            "policy" => sc.policies.push(parse_policy(ln, &tokens[1..])?),
            "workload" => sc.workloads.push(parse_workload(ln, &tokens[1..])?),
            "seeds" => {
                singleton(ln, "seeds")?;
                if tokens.len() == 1 {
                    return Err(ScenarioError::at(
                        ln,
                        "seeds: expected at least one integer".to_string(),
                    ));
                }
                for tok in &tokens[1..] {
                    sc.seeds.push(tok.parse().map_err(|_| {
                        ScenarioError::at(
                            ln,
                            format!("seeds: `{tok}` is not a non-negative integer"),
                        )
                    })?);
                }
            }
            "hyper_periods" => {
                singleton(ln, "hyper_periods")?;
                let [_, val] = tokens.as_slice() else {
                    return Err(ScenarioError::at(
                        ln,
                        "hyper_periods: expected one integer".to_string(),
                    ));
                };
                // Reject 0 here rather than letting the campaign
                // builder silently clamp it to 1 under a `x 0
                // hyper-periods` label.
                sc.hyper_periods =
                    Some(val.parse().ok().filter(|v: &u64| *v >= 1).ok_or_else(|| {
                        ScenarioError::at(
                            ln,
                            format!("hyper_periods: `{val}` is not a positive integer"),
                        )
                    })?);
            }
            "deadline_tol_ms" => {
                singleton(ln, "deadline_tol_ms")?;
                let [_, val] = tokens.as_slice() else {
                    return Err(ScenarioError::at(
                        ln,
                        "deadline_tol_ms: expected one number".to_string(),
                    ));
                };
                let parsed: f64 = val
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite())
                    .ok_or_else(|| {
                        ScenarioError::at(
                            ln,
                            format!("deadline_tol_ms: `{val}` is not a finite number"),
                        )
                    })?;
                sc.deadline_tol_ms = Some(parsed);
            }
            "synthesis" => {
                singleton(ln, "synthesis")?;
                sc.synthesis = Some(match tokens.as_slice() {
                    ["synthesis", "quick"] => SynthProfile::Quick,
                    ["synthesis", "default"] => SynthProfile::Default,
                    _ => {
                        return Err(ScenarioError::at(
                            ln,
                            "synthesis: expected `quick` or `default`".to_string(),
                        ))
                    }
                });
            }
            "acs_multistart" => {
                singleton(ln, "acs_multistart")?;
                sc.acs_multistart = match tokens.as_slice() {
                    ["acs_multistart", "on"] => true,
                    ["acs_multistart", "off"] => false,
                    _ => {
                        return Err(ScenarioError::at(
                            ln,
                            "acs_multistart: expected `on` or `off`".to_string(),
                        ))
                    }
                };
            }
            "threads" => {
                singleton(ln, "threads")?;
                let [_, val] = tokens.as_slice() else {
                    return Err(ScenarioError::at(
                        ln,
                        "threads: expected one integer".to_string(),
                    ));
                };
                let parsed: usize = val.parse().ok().filter(|v| *v >= 1).ok_or_else(|| {
                    ScenarioError::at(
                        ln,
                        format!(
                            "threads: `{val}` is not a positive integer \
                                 (omit the directive for auto)"
                        ),
                    )
                })?;
                sc.threads = Some(parsed);
            }
            other => {
                return Err(ScenarioError::at(
                    ln,
                    format!(
                        "unknown directive `{other}` (known: taskset, tasksets, dag, processor, \
                         cores, class, arrivals, placement, schedules, policy, workload, seeds, \
                         hyper_periods, deadline_tol_ms, synthesis, acs_multistart, threads)"
                    ),
                ))
            }
        }
    }
    if let Some((start_ln, name, _)) = inline {
        return Err(ScenarioError::msg(format!(
            "taskset `{name}` opened at line {start_ln} is never closed with `end`"
        )));
    }
    if let Some((start_ln, name, _)) = dag {
        return Err(ScenarioError::msg(format!(
            "dag `{name}` opened at line {start_ln} is never closed with `end`"
        )));
    }
    validate_dags(&sc, &dag_lines)?;
    Ok(sc)
}

/// Validates every `dag` block against the inline task set it names:
/// unknown sets/tasks, self-edges, duplicate edges, period mismatches
/// and cycles are all rejected here, anchored to the offending line.
/// [`Scenario::materialize_task_sets`] rebuilds the graph through
/// [`acs_model::TaskGraph`] afterwards, so parsed scenarios never fail
/// graph validation at materialization time.
fn validate_dags(sc: &Scenario, dag_lines: &[(usize, Vec<usize>)]) -> Result<(), ScenarioError> {
    for (decl, (decl_ln, edge_lns)) in sc.dags.iter().zip(dag_lines) {
        let mut named = None;
        for d in &sc.task_sets {
            let (name, tasks) = match d {
                TaskSetDecl::Inline { name, tasks } => (name, Some(tasks)),
                TaskSetDecl::RealLife { name, .. } | TaskSetDecl::Trace { name, .. } => {
                    (name, None)
                }
                TaskSetDecl::Random { .. } => continue,
            };
            if *name == decl.set {
                named = Some(tasks);
                break;
            }
        }
        let tasks = match named {
            Some(Some(tasks)) => tasks,
            Some(None) => {
                return Err(ScenarioError::at(
                    *decl_ln,
                    format!(
                        "dag `{}`: precedence graphs attach to inline `taskset` blocks only",
                        decl.set
                    ),
                ))
            }
            None => {
                return Err(ScenarioError::at(
                    *decl_ln,
                    format!("dag `{}`: no inline `taskset` block of that name", decl.set),
                ))
            }
        };
        let period_of = |task: &str| tasks.iter().find(|t| t.name == task).map(|t| t.period);
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for ((from, to), ln) in decl.edges.iter().zip(edge_lns) {
            let ctx = format!("dag `{}`: edge `{from}->{to}`", decl.set);
            let unknown = |task: &str| {
                ScenarioError::at(
                    *ln,
                    format!("{ctx}: unknown task `{task}` in taskset `{}`", decl.set),
                )
            };
            let pf = period_of(from).ok_or_else(|| unknown(from))?;
            let pt = period_of(to).ok_or_else(|| unknown(to))?;
            if from == to {
                return Err(ScenarioError::at(
                    *ln,
                    format!("{ctx}: a task cannot precede itself"),
                ));
            }
            if seen.contains(&(from, to)) {
                return Err(ScenarioError::at(*ln, format!("{ctx}: duplicate edge")));
            }
            if pf != pt {
                return Err(ScenarioError::at(
                    *ln,
                    format!(
                        "{ctx}: periods differ ({pf} vs {pt}); precedence pairs \
                         same-numbered instances, so both tasks need the same period"
                    ),
                ));
            }
            if reaches(&seen, to, from) {
                return Err(ScenarioError::at(*ln, format!("{ctx}: closes a cycle")));
            }
            seen.push((from, to));
        }
    }
    Ok(())
}

/// Whether `to` is reachable from `from` over the accepted edges
/// (depth-first; the edge sets are tiny).
fn reaches(edges: &[(&str, &str)], from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let mut stack = vec![from];
    let mut visited: Vec<&str> = Vec::new();
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if visited.contains(&node) {
            continue;
        }
        visited.push(node);
        stack.extend(edges.iter().filter(|(f, _)| *f == node).map(|(_, t)| *t));
    }
    false
}
