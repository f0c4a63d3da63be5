//! The paper's **online re-optimizing DVS policy** (`ReOpt`).
//!
//! [`GreedyReclaim`](crate::GreedyReclaim) exploits observed slack only
//! *locally*: each dispatch stretches the current chunk's remaining
//! worst-case budget over the time left to its static milestone. `ReOpt`
//! goes the rest of the way: at every job boundary (hyper-period start,
//! release, completion) it rebuilds the remaining-instance formulation —
//! executed cycles subtracted, the boundary time as the new origin,
//! windows and deadlines unchanged — and re-synthesizes the *end times
//! themselves* with the same augmented-Lagrangian solver the offline ACS
//! phase uses ([`acs_core::reopt`]). Early completions thus reshape the
//! whole remaining speed profile, not just the chunk in flight.
//!
//! Four mechanisms keep the boundary solves affordable (the ROADMAP's
//! speed mandate — re-optimization is only viable when each re-solve is
//! cheap):
//!
//! 1. **Warm starts.** A boundary that cannot be answered incrementally
//!    runs two cheap solves — one from the static schedule's end times
//!    projected onto the boundary state, one from the latest-feasible
//!    (ALAP) profile — and keeps the better feasible result
//!    ([`acs_core::reopt::synthesize_remaining_best_with_carry`]).
//!    Both starts are feasible and structured, so the small default
//!    iteration budget suffices.
//! 2. **Incremental carry.** Successive boundaries are nearly the same
//!    problem: the live set shrinks, `now` advances, the constraint
//!    structure barely moves. The winning solve's end times *and* PHR
//!    inequality multipliers are carried to the next boundary
//!    ([`acs_core::reopt::WarmCarry`], remapped by sub-instance), where
//!    a *single* seeded solve replaces the two-solve fan-out whenever
//!    it already passes the exact gate ([`ReOptConfig::warm_carry`]).
//! 3. **Receding horizon.** Only the next [`ReOptConfig::horizon`] live
//!    sub-instances enter the NLP; the frontier advances with execution,
//!    so successive boundaries cover the whole hyper-period while each
//!    solve stays small.
//! 4. **Solver cache.** Boundary states are quantized (times to 1/512
//!    of the hyper-period, cycles to 1/256 of the largest WCEC) and
//!    solved states are kept in a shared LRU ([`SolverCache`]), so
//!    repeated states — across hyper-periods and across campaign seeds
//!    — skip the solver entirely. Quantization happens *before* the
//!    solve, which makes the solve a pure function of the cache key: a
//!    hit returns bit-identical end times to what the solver would
//!    produce, so results do not depend on whether the cache is
//!    enabled.
//!
//! Safety never rests on the solver: a candidate is adopted only after
//! an exact worst-case chain check *and* only when it strictly lowers
//! the model energy of the expected remaining workload; otherwise the
//! policy keeps its previous end times, degrading gracefully to greedy
//! behavior. Because budgets, windows and milestones are untouched (only
//! dispatch speeds change, still retiring every remaining budget by an
//! end time inside its window), `ReOpt` inherits the static schedule's
//! worst-case guarantees.

use crate::policy::{BoundaryEvent, DispatchContext, Policy, SolverContext, SolverStats};
use acs_core::reopt::{
    synthesize_remaining_best_with_carry, synthesize_remaining_carry, InstanceProgress,
    RemainingInstance, ReoptOptions, WarmCarry,
};
use acs_core::StaticSchedule;
use acs_model::units::Freq;
use acs_model::TaskSet;
use acs_power::Processor;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Boundary-time quantization, as a fraction of the hyper-period
/// (times are rounded *up*, which is the conservative direction).
const TIME_QUANTUM_FRAC: f64 = 1.0 / 512.0;
/// Cycle quantization, as a fraction of the largest WCEC (remaining
/// budgets round *up*, executed cycles round *down* — both
/// conservative).
const CYCLE_QUANTUM_FRAC: f64 = 1.0 / 256.0;

/// Configuration of the [`ReOpt`] policy.
#[derive(Debug, Clone)]
pub struct ReOptConfig {
    /// Boundary-solver options (iteration budget, acceptance tolerance).
    pub solver: ReoptOptions,
    /// Receding-horizon length: how many live sub-instances enter each
    /// boundary NLP (`0` = all of them). The default (16) keeps release
    /// solves in the low milliseconds on paper-scale expansions while
    /// capturing nearly all of the near-term slack.
    pub horizon: usize,
    /// Re-solve on release boundaries too (default `true`). Releases
    /// carry no new workload observation, but elapsed time itself is
    /// exploitable state.
    pub resolve_on_release: bool,
    /// Re-solve once at every hyper-period start (default `true`); under
    /// a WCS schedule this alone recovers most of the offline ACS gain.
    pub resolve_at_start: bool,
    /// Minimum relative model-energy improvement a candidate must show
    /// before it replaces the current end times. The model evaluates the
    /// *expected* remaining workload; because energy is convex in the
    /// workload (Jensen), marginal model gains routinely fail to
    /// materialize on realized draws. The default (1%) keeps `ReOpt` at
    /// exact greedy behavior unless the re-solve finds a gain that
    /// clears that noise floor.
    pub min_rel_gain: f64,
    /// Incremental boundary solves (default `true`): carry the previous
    /// boundary's winning solve — end times *and* PHR inequality
    /// multipliers, remapped by sub-instance — into the next boundary
    /// as one seeded warm solve, and skip both the cache and the
    /// two-solve multi-start fan-out whenever that single solve already
    /// passes the exact worst-case gate and clears
    /// [`ReOptConfig::min_rel_gain`]. The fan-out fallback never
    /// consumes carry state, so cached solutions remain pure functions
    /// of their keys and results stay independent of cache
    /// configuration.
    pub warm_carry: bool,
}

impl Default for ReOptConfig {
    fn default() -> Self {
        ReOptConfig {
            solver: ReoptOptions::default(),
            horizon: 16,
            resolve_on_release: true,
            resolve_at_start: true,
            min_rel_gain: 0.01,
            warm_carry: true,
        }
    }
}

/// Shared LRU cache of boundary solves, keyed by the quantized remaining
/// workload state. Clone the [`Arc`] into every [`ReOpt`] instance of a
/// campaign so repeated boundary states across seeds and cells hit the
/// cache instead of the solver.
///
/// Cached values are pure functions of their keys, so enabling or
/// sharing the cache never changes simulation results — only how often
/// the solver actually runs. (Hit *counts* can vary with thread
/// interleaving when several simulations share one cache; energies and
/// deadline statistics cannot.)
///
/// Internally the cache is **sharded**: keys are routed by hash to one
/// of [`SolverCache::shard_count`] independent LRU shards, each behind
/// its own lock, so concurrent campaigns sharing one cache stop
/// serializing on a single mutex. Each shard evicts independently with
/// its share of the total capacity; the aggregate lookup/hit counters
/// ([`SolverCache::stats`]) are atomic increments and therefore exact
/// regardless of interleaving.
#[derive(Debug)]
pub struct SolverCache {
    shards: Vec<Mutex<CacheInner>>,
    shard_capacity: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
}

/// Aggregate counters of a [`SolverCache`], exact under concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Total `get` calls since the cache was created.
    pub lookups: u64,
    /// How many of those lookups found a cached solve.
    pub hits: u64,
    /// Solved states currently resident across all shards.
    pub entries: usize,
    /// Number of independent LRU shards.
    pub shards: usize,
}

impl SolverCacheStats {
    /// `hits / lookups`, or `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    tick: u64,
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: u64,
    state: Vec<u64>,
}

#[derive(Debug)]
struct CacheEntry {
    ends_ms: Vec<f64>,
    /// The fan-out winner's carry state. Stored so a cache hit seeds
    /// the next boundary exactly like the fresh fan-out it replaces —
    /// carry evolution, and therefore every downstream solve, is
    /// bit-identical with and without a cache.
    carry: WarmCarry,
    last_used: u64,
}

/// Default shard count for [`SolverCache::new`]; enough to make lock
/// collisions rare at campaign thread counts without fragmenting small
/// capacities.
const DEFAULT_SHARDS: usize = 8;

impl SolverCache {
    /// Creates a cache holding at most (roughly) `capacity` solved
    /// states, spread over the default number of shards.
    pub fn new(capacity: usize) -> Self {
        SolverCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (clamped to ≥ 1).
    /// Total capacity is split evenly: each shard holds at most
    /// `ceil(capacity / shards)` entries and evicts LRU independently.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        SolverCache {
            shards: (0..shards)
                .map(|_| Mutex::new(CacheInner::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(shards).max(1),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Number of independent LRU shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock_shard(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, CacheInner> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() % self.shards.len() as u64) as usize;
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, key: &CacheKey) -> Option<(Vec<f64>, WarmCarry)> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock_shard(key);
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner.map.get_mut(key).map(|e| {
            e.last_used = tick;
            (e.ends_ms.clone(), e.carry.clone())
        });
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn insert(&self, key: CacheKey, ends_ms: Vec<f64>, carry: WarmCarry) {
        let mut inner = self.lock_shard(&key);
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.shard_capacity && !inner.map.contains_key(&key) {
            // Evict the shard's least-recently-used entry. O(n) scan —
            // per-shard capacities are small (tens to hundreds) and
            // insertions happen only on cache misses, which the cache
            // exists to make rare.
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| CacheKey {
                    fingerprint: k.fingerprint,
                    state: k.state.clone(),
                })
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            CacheEntry {
                ends_ms,
                carry,
                last_used: tick,
            },
        );
    }

    /// Number of cached boundary states across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact aggregate counters: lifetime lookups/hits plus current
    /// occupancy. Lookups and hits are atomic read-modify-writes, so the
    /// totals are exact even when many campaigns share the cache;
    /// `entries` is a point-in-time sum over the shards.
    pub fn stats(&self) -> SolverCacheStats {
        SolverCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.len(),
            shards: self.shards.len(),
        }
    }
}

/// The online re-optimizing policy; see the [module docs](self).
///
/// Requires a static schedule ([`Policy::needs_schedule`] is `true`).
/// Construct with [`ReOpt::new`] (private per-run cache) or wire a
/// shared [`SolverCache`] with [`ReOpt::with_cache`]; in campaigns use
/// `acs_runtime::PolicySpec::reopt()`, which shares one cache across the
/// whole grid.
#[derive(Debug, Default)]
pub struct ReOpt {
    cfg: ReOptConfig,
    cache: Option<Arc<SolverCache>>,
    /// Current per-sub-instance end times (ms); dispatch speeds come
    /// from these.
    ends_ms: Vec<f64>,
    /// Quantized state of the most recent boundary handled, so the
    /// coincident boundaries of one instant (a Start plus every task
    /// releasing at t = 0, simultaneous releases on shared grid points)
    /// cost one solve, not one each — with or without a shared cache.
    last_state: Option<Vec<u64>>,
    /// The previous boundary's winning solve (ends + PHR multipliers),
    /// seeding the next boundary's incremental warm solve when
    /// [`ReOptConfig::warm_carry`] is on. Reset at every hyper-period
    /// start.
    carry: Option<WarmCarry>,
    fingerprint: u64,
    q_time_ms: f64,
    q_cycles: f64,
    stats: SolverStats,
    ready: bool,
}

impl ReOpt {
    /// Creates the policy with the default configuration and no shared
    /// cache. Warm starts, the receding horizon and same-instant
    /// boundary coalescing still apply, but repeated boundary states
    /// across hyper-periods are re-solved — attach a [`SolverCache`]
    /// ([`ReOpt::with_cache`]) to skip those too.
    pub fn new() -> Self {
        ReOpt::default()
    }

    /// Creates the policy with an explicit configuration.
    pub fn with_config(cfg: ReOptConfig) -> Self {
        ReOpt {
            cfg,
            ..ReOpt::default()
        }
    }

    /// Attaches a shared solver cache.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The policy's configuration.
    pub fn config(&self) -> &ReOptConfig {
        &self.cfg
    }

    fn setup(&mut self, ctx: &SolverContext<'_>) {
        let Some(schedule) = ctx.schedule else {
            self.ready = false;
            return;
        };
        self.ends_ms = schedule
            .milestones()
            .iter()
            .map(|m| m.end_time.as_ms())
            .collect();
        let hyper = ctx.set.hyper_period().get() as f64;
        let max_wcec = ctx
            .set
            .tasks()
            .iter()
            .map(|t| t.wcec().as_cycles())
            .fold(0.0f64, f64::max);
        self.q_time_ms = (hyper * TIME_QUANTUM_FRAC).max(1e-9);
        self.q_cycles = (max_wcec * CYCLE_QUANTUM_FRAC).max(1e-9);
        self.fingerprint = fingerprint(schedule, ctx.set, ctx.cpu, &self.cfg);
        self.last_state = None;
        self.carry = None;
        self.ready = true;
    }

    /// Quantizes the boundary state conservatively: time up, remaining
    /// budgets up, executed cycles down. The solver then sees a state at
    /// least as demanding as reality, so a feasible candidate is
    /// feasible for the true state too — and equal quantized states
    /// yield equal solves, which is what makes caching sound.
    fn quantize(&self, ctx: &SolverContext<'_>) -> (f64, Vec<InstanceProgress>) {
        let qt = self.q_time_ms;
        let qc = self.q_cycles;
        let now = (ctx.now.as_ms() / qt).ceil() * qt;
        let progress = ctx
            .progress
            .iter()
            .map(|p| InstanceProgress {
                executed: acs_model::units::Cycles::from_cycles(
                    (p.executed.as_cycles() / qc).floor() * qc,
                ),
                chunk_budget_left: acs_model::units::Cycles::from_cycles(
                    (p.chunk_budget_left.as_cycles() / qc).ceil() * qc,
                ),
                ..*p
            })
            .collect();
        (now, progress)
    }

    fn resolve(&mut self, ctx: &SolverContext<'_>) {
        let Some(schedule) = ctx.schedule else {
            return;
        };
        let (q_now, q_progress) = self.quantize(ctx);
        let rem = RemainingInstance::at_boundary(
            schedule,
            ctx.set,
            ctx.cpu,
            acs_model::units::Time::from_ms(q_now),
            &q_progress,
        )
        .with_horizon(self.cfg.horizon);
        if rem.is_settled() {
            return;
        }
        let state = rem.cache_key();
        // Same quantized state as the previous boundary (coincident
        // events at one instant): the solve and the gate would repeat
        // verbatim, so skip without consulting the solver at all.
        if self.last_state.as_ref() == Some(&state) {
            return;
        }
        self.last_state = Some(state.clone());
        self.stats.lookups += 1;
        // Incremental path first: one warm solve seeded from the
        // previous boundary's multipliers and ends. It runs before —
        // and entirely independent of — the cache, so carry evolution
        // is identical with and without one, and is adopted only under
        // the same exact worst-case + energy gate as any other
        // candidate. On a gate pass both the cache lookup and the
        // two-solve fan-out are skipped.
        if self.cfg.warm_carry {
            if let Some(carry) = self.carry.take() {
                let (out, new_carry) = synthesize_remaining_carry(&rem, &carry, &self.cfg.solver);
                let e_cur = rem.energy_of(&self.ends_ms);
                if out.feasible
                    && out.ends_ms.len() == self.ends_ms.len()
                    && out.predicted_energy.as_units() < e_cur * (1.0 - self.cfg.min_rel_gain)
                {
                    self.stats.warm_carry_hits += 1;
                    self.stats.adopted += 1;
                    self.ends_ms = out.ends_ms;
                    self.carry = Some(new_carry);
                    return;
                }
                // Rejected: drop the attempt and fall through to the
                // cache + fan-out, which refreshes the carry.
            }
        }
        let key = CacheKey {
            fingerprint: self.fingerprint,
            state,
        };
        let (candidate, carry) = match self.cache.as_ref().and_then(|c| c.get(&key)) {
            Some(hit) => {
                self.stats.cache_hits += 1;
                hit
            }
            None => {
                self.stats.resolves += 1;
                let (out, carry) = synthesize_remaining_best_with_carry(&rem, &self.cfg.solver);
                if let Some(cache) = &self.cache {
                    cache.insert(key, out.ends_ms.clone(), carry.clone());
                }
                (out.ends_ms, carry)
            }
        };
        // The fan-out (or its cached image — same thing by key purity)
        // seeds the next boundary's carry whether or not its candidate
        // is adopted below.
        self.carry = Some(carry);
        // Exact acceptance gate, independent of where the candidate came
        // from: worst-case feasible AND a strict model-energy improvement
        // over the end times currently driving dispatches.
        if candidate.len() != self.ends_ms.len()
            || !rem.feasible(&candidate, self.cfg.solver.accept_tol_ms)
        {
            return;
        }
        let e_new = rem.energy_of(&candidate);
        let e_cur = rem.energy_of(&self.ends_ms);
        if e_new < e_cur * (1.0 - self.cfg.min_rel_gain) {
            self.stats.adopted += 1;
            self.ends_ms = candidate;
        }
    }
}

impl Policy for ReOpt {
    fn name(&self) -> &str {
        "reopt"
    }

    fn needs_schedule(&self) -> bool {
        true
    }

    fn wants_boundaries(&self) -> bool {
        true
    }

    fn on_start(&mut self, _set: &TaskSet, _cpu: &Processor) {
        // Full state arrives with the Start boundary right after this.
        self.ready = false;
    }

    fn on_boundary(&mut self, ctx: &SolverContext<'_>) {
        match ctx.event {
            BoundaryEvent::Start => {
                self.setup(ctx);
                if self.ready && self.cfg.resolve_at_start {
                    self.resolve(ctx);
                }
            }
            BoundaryEvent::Release(_) => {
                if self.ready && self.cfg.resolve_on_release {
                    self.resolve(ctx);
                }
            }
            BoundaryEvent::Completion(_) => {
                if self.ready {
                    self.resolve(ctx);
                }
            }
        }
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        Some(self.stats)
    }

    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        let end_ms = match (self.ready, ctx.sub) {
            (true, Some(sub)) if sub.0 < self.ends_ms.len() => self.ends_ms[sub.0],
            _ => ctx.chunk_end.as_ms(),
        };
        let window = end_ms - ctx.now.as_ms();
        if window <= 0.0 {
            ctx.cpu.f_max()
        } else {
            // Repaired end times stretch budgets like greedy does; on a
            // leakage-modeled processor the engine floors the executed
            // speed at the task's precomputed critical speed (below it,
            // slower costs more).
            ctx.chunk_budget_remaining / acs_model::units::TimeSpan::from_ms(window)
        }
    }
}

/// Deterministic fingerprint of the (schedule, task set, processor,
/// policy configuration) tuple, separating cache entries of different
/// cells — and differently-configured `ReOpt` instances — sharing one
/// [`SolverCache`]. The configuration must be part of the key: a cached
/// solution is a pure function of (state, solver options), so two
/// policies with different budgets sharing a cache would otherwise read
/// each other's solutions. Uses the std `DefaultHasher` with its fixed
/// default keys, so the value is stable within a process — which is all
/// a process-local cache needs.
fn fingerprint(
    schedule: &StaticSchedule,
    set: &TaskSet,
    cpu: &Processor,
    cfg: &ReOptConfig,
) -> u64 {
    let mut h = DefaultHasher::new();
    set.len().hash(&mut h);
    for t in set.tasks() {
        t.period().get().hash(&mut h);
        t.deadline().get().hash(&mut h);
        t.wcec().as_cycles().to_bits().hash(&mut h);
        t.acec().as_cycles().to_bits().hash(&mut h);
        t.bcec().as_cycles().to_bits().hash(&mut h);
        t.c_eff().to_bits().hash(&mut h);
    }
    cfg.horizon.hash(&mut h);
    cfg.warm_carry.hash(&mut h);
    cfg.min_rel_gain.to_bits().hash(&mut h);
    TIME_QUANTUM_FRAC.to_bits().hash(&mut h);
    CYCLE_QUANTUM_FRAC.to_bits().hash(&mut h);
    cfg.solver.accept_tol_ms.to_bits().hash(&mut h);
    let al = &cfg.solver.auglag;
    al.outer_iters.hash(&mut h);
    al.inner.max_iters.hash(&mut h);
    al.inner.memory.hash(&mut h);
    al.mu_init.to_bits().hash(&mut h);
    al.mu_growth.to_bits().hash(&mut h);
    al.mu_max.to_bits().hash(&mut h);
    al.violation_tol.to_bits().hash(&mut h);
    al.violation_shrink.to_bits().hash(&mut h);
    al.smoothing_init.to_bits().hash(&mut h);
    al.smoothing_final.to_bits().hash(&mut h);
    al.smoothing_decay.to_bits().hash(&mut h);
    al.inner.grad_tol.to_bits().hash(&mut h);
    al.inner.f_tol_rel.to_bits().hash(&mut h);
    cpu.f_max().as_cycles_per_ms().to_bits().hash(&mut h);
    cpu.f_min().as_cycles_per_ms().to_bits().hash(&mut h);
    cpu.vmin().as_volts().to_bits().hash(&mut h);
    cpu.vmax().as_volts().to_bits().hash(&mut h);
    for m in schedule.milestones() {
        m.end_time.as_ms().to_bits().hash(&mut h);
        m.worst_workload.as_cycles().to_bits().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimOptions, Simulator};
    use crate::policy::GreedyReclaim;
    use acs_core::{synthesize_acs_warm, synthesize_wcs, SynthesisOptions};
    use acs_model::units::{Cycles, Ticks, Volt};
    use acs_model::{Task, TaskId, TaskSet};
    use acs_power::FreqModel;

    fn empty_carry() -> WarmCarry {
        WarmCarry {
            ends_ms: Vec::new(),
            subs: Vec::new(),
            nu: Vec::new(),
        }
    }

    fn motivation() -> (TaskSet, Processor) {
        let mk = |n: &str| {
            Task::builder(n, Ticks::new(20))
                .wcec(Cycles::from_cycles(1000.0))
                .acec(Cycles::from_cycles(500.0))
                .bcec(Cycles::from_cycles(100.0))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![mk("t1"), mk("t2"), mk("t3")]).unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        (set, cpu)
    }

    fn run(
        set: &TaskSet,
        cpu: &Processor,
        schedule: &acs_core::StaticSchedule,
        policy: impl crate::policy::IntoPolicy,
        totals: &[Cycles],
        hyper_periods: u64,
    ) -> crate::report::SimReport {
        Simulator::new(set, cpu, policy)
            .with_schedule(schedule)
            .with_options(SimOptions {
                hyper_periods,
                ..Default::default()
            })
            .run(&mut |t: TaskId, _: u64| totals[t.0])
            .unwrap()
            .report
    }

    #[test]
    fn reopt_beats_greedy_on_wcs_schedule() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let greedy = run(&set, &cpu, &wcs, GreedyReclaim, &totals, 1);
        let reopt = run(&set, &cpu, &wcs, ReOpt::new(), &totals, 1);
        assert_eq!(reopt.deadline_misses, 0);
        assert_eq!(reopt.jobs_completed, greedy.jobs_completed);
        // Online re-optimization of the WCS ends recovers (most of) the
        // offline ACS gain — far more than float noise.
        assert!(
            reopt.energy.as_units() < 0.95 * greedy.energy.as_units(),
            "reopt {} vs greedy {}",
            reopt.energy,
            greedy.energy
        );
        assert!(reopt.solver_lookups > 0);
        assert!(reopt.resolves_adopted > 0);
    }

    #[test]
    fn reopt_never_worse_than_greedy_on_acs_schedule() {
        let (set, cpu) = motivation();
        let opts = SynthesisOptions::quick();
        let wcs = synthesize_wcs(&set, &cpu, &opts).unwrap();
        let acs = synthesize_acs_warm(&set, &cpu, &opts, &wcs).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let greedy = run(&set, &cpu, &acs, GreedyReclaim, &totals, 1);
        let reopt = run(&set, &cpu, &acs, ReOpt::new(), &totals, 1);
        assert_eq!(reopt.deadline_misses, 0);
        assert!(
            reopt.energy.as_units() <= greedy.energy.as_units() * (1.0 + 1e-9),
            "reopt {} vs greedy {}",
            reopt.energy,
            greedy.energy
        );
    }

    #[test]
    fn reopt_is_worst_case_safe() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let totals = acs_core::trace::wcec_totals(&set);
        let reopt = run(&set, &cpu, &wcs, ReOpt::new(), &totals, 2);
        assert_eq!(reopt.deadline_misses, 0);
        assert_eq!(reopt.jobs_completed, 2 * set.total_instances() as usize);
    }

    #[test]
    fn shared_cache_changes_counters_not_results() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let uncached = run(&set, &cpu, &wcs, ReOpt::new(), &totals, 3);
        let cache = Arc::new(SolverCache::new(256));
        let cached = run(
            &set,
            &cpu,
            &wcs,
            ReOpt::new().with_cache(cache.clone()),
            &totals,
            3,
        );
        assert_eq!(cached.energy, uncached.energy);
        assert_eq!(cached.deadline_misses, uncached.deadline_misses);
        assert_eq!(cached.voltage_switches, uncached.voltage_switches);
        // Identical states repeat across the 3 hyper-periods: the cache
        // must absorb them.
        assert!(cached.solver_cache_hits > 0, "{cached:?}");
        assert_eq!(cached.solver_lookups, uncached.solver_lookups);
        assert!(cached.boundary_resolves < uncached.boundary_resolves);
        // Carry evolution is cache-independent: the incremental path
        // answers the same lookups either way.
        assert_eq!(cached.warm_carry_hits, uncached.warm_carry_hits);
        for r in [&cached, &uncached] {
            assert_eq!(
                r.solver_lookups,
                r.warm_carry_hits + r.solver_cache_hits + r.boundary_resolves,
                "{r:?}"
            );
        }
        assert!(!cache.is_empty());
        // The cache-level counters agree with the per-run report.
        let stats = cache.stats();
        assert_eq!(stats.lookups, cached.solver_lookups as u64);
        assert_eq!(stats.hits, cached.solver_cache_hits as u64);
        assert_eq!(stats.entries, cache.len());
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn sharded_cache_matches_single_shard_results() {
        let (set, cpu) = motivation();
        let wcs = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let one = Arc::new(SolverCache::with_shards(256, 1));
        let many = Arc::new(SolverCache::with_shards(256, 16));
        assert_eq!(one.shard_count(), 1);
        assert_eq!(many.shard_count(), 16);
        let a = run(
            &set,
            &cpu,
            &wcs,
            ReOpt::new().with_cache(one.clone()),
            &totals,
            3,
        );
        let b = run(
            &set,
            &cpu,
            &wcs,
            ReOpt::new().with_cache(many.clone()),
            &totals,
            3,
        );
        // Shard routing changes which lock a key lands behind, never what
        // is cached for it: results and (single-threaded) counters match.
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.solver_lookups, b.solver_lookups);
        assert_eq!(a.solver_cache_hits, b.solver_cache_hits);
        assert_eq!(one.len(), many.len());
        assert_eq!(one.stats().lookups, many.stats().lookups);
    }

    #[test]
    fn shard_capacity_bounds_occupancy() {
        // 4 shards x capacity 8 => no shard exceeds ceil(8/4) = 2, so the
        // whole cache can never hold more than 8 entries no matter how
        // many distinct states are inserted.
        let cache = SolverCache::with_shards(8, 4);
        for i in 0..64u64 {
            cache.insert(
                CacheKey {
                    fingerprint: i,
                    state: vec![i],
                },
                vec![i as f64],
                empty_carry(),
            );
        }
        assert!(cache.len() <= 8, "len = {}", cache.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn cache_counters_are_exact_across_threads() {
        use std::thread;
        // Capacity far above the 1000 inserted keys so hash skew across
        // shards can never trigger eviction.
        let cache = Arc::new(SolverCache::with_shards(8192, 8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(thread::spawn(move || {
                for i in 0..250u64 {
                    let key = CacheKey {
                        fingerprint: t,
                        state: vec![i],
                    };
                    if cache.get(&key).is_none() {
                        cache.insert(
                            CacheKey {
                                fingerprint: t,
                                state: vec![i],
                            },
                            vec![0.0],
                            empty_carry(),
                        );
                    }
                    // Second lookup of a just-inserted key: guaranteed hit
                    // (keys are disjoint per thread, capacity is ample).
                    assert!(cache.get(&key).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups, 4 * 250 * 2);
        assert_eq!(stats.hits, 4 * 250);
        assert_eq!(stats.entries, 1000);
        assert_eq!(stats.shards, 8);
    }

    #[test]
    fn reopt_without_schedule_is_rejected() {
        let (set, cpu) = motivation();
        let err = Simulator::new(&set, &cpu, ReOpt::new())
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1.0))
            .unwrap_err();
        assert!(matches!(err, crate::SimError::ScheduleRequired { .. }));
    }
}
