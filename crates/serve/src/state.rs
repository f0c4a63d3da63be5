//! Process-wide server state: the shared solver cache, the campaign
//! plan cache keyed by scenario fingerprint, admission control and the
//! counters behind the `stats` frame.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use acs_runtime::pool::default_threads;
use acs_runtime::CampaignPlans;
use acs_scenario::Scenario;
use acs_sim::SolverCache;

use crate::json::ObjectBuilder;

/// Tunables for [`serve`](crate::serve) — every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks a free port, and the
    /// server prints the bound address on startup).
    pub addr: String,
    /// Directory for per-campaign checkpoint files.
    pub ckpt_dir: PathBuf,
    /// Admission cap: campaigns executing at once; further `submit`
    /// frames get an `error` frame and may retry.
    pub max_campaigns: usize,
    /// Backpressure bound: chunks in flight ahead of the slowest
    /// consumer (the socket writer + checkpoint fsync), per campaign.
    pub max_inflight_chunks: usize,
    /// Default cells per chunk when `submit` does not override it.
    pub default_chunk_size: usize,
    /// Worker threads per campaign when `submit` does not override it.
    pub threads: usize,
    /// Total capacity of the shared solver cache (split across shards).
    pub cache_capacity: usize,
    /// Shards in the shared solver cache.
    pub cache_shards: usize,
    /// Plan cache capacity (distinct scenario fingerprints).
    pub plan_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            ckpt_dir: PathBuf::from(".acsched-ckpt"),
            max_campaigns: 4,
            max_inflight_chunks: 4,
            default_chunk_size: 4,
            threads: default_threads(),
            cache_capacity: 16384,
            cache_shards: 8,
            plan_capacity: 32,
        }
    }
}

/// FNV-1a 64-bit over the scenario's canonical text with the `threads`
/// directive cleared — stable across processes and restarts (unlike
/// `DefaultHasher`'s randomized state), identical for any two scenario
/// files that parse to the same experiment, and independent of the
/// worker-thread count, which never changes results.
///
/// `taskset … trace` declarations fold the trace file's **contents**
/// into the hash (in declaration order), not just its path: two
/// submissions only share plans and checkpoints when the recorded
/// streams match. An unreadable trace file is rejected here — before
/// admission — so a bad path costs an `error` frame, never a slot.
pub fn scenario_fingerprint(scenario: &Scenario) -> Result<u64, String> {
    let mut canonical = scenario.clone();
    canonical.threads = None;
    let text = canonical
        .to_text()
        .map_err(|e| format!("scenario cannot be canonicalized: {e}"))?;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(text.as_bytes());
    for (name, path) in scenario.trace_paths() {
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("taskset `{name}`: cannot read trace `{path}`: {e}"))?;
        fold(&bytes);
    }
    Ok(hash)
}

/// LRU cache of campaign plans keyed by scenario fingerprint.
#[derive(Debug, Default)]
struct PlanCache {
    plans: HashMap<u64, Arc<CampaignPlans>>,
    order: VecDeque<u64>,
}

/// Cumulative server counters, snapshot by the `stats` frame.
#[derive(Debug, Default)]
pub struct Counters {
    /// `submit` frames that passed validation and admission.
    pub campaigns_accepted: AtomicU64,
    /// Campaigns that streamed `done`.
    pub campaigns_completed: AtomicU64,
    /// Campaigns that aborted with an `error` frame after acceptance.
    pub campaigns_failed: AtomicU64,
    /// Chunks executed by the worker pool.
    pub chunks_run: AtomicU64,
    /// Chunks replayed from checkpoints instead of re-running.
    pub chunks_replayed: AtomicU64,
    /// `record` frames streamed to clients.
    pub records_streamed: AtomicU64,
    /// Plan-cache lookups.
    pub plan_lookups: AtomicU64,
    /// Plan-cache hits.
    pub plan_hits: AtomicU64,
}

/// Shared state behind one `acsched serve` process.
#[derive(Debug)]
pub struct ServerState {
    /// The configuration the server was started with.
    pub cfg: ServerConfig,
    /// The campaign-wide sharded solver cache, handed to every
    /// campaign built by this server.
    pub solver_cache: Arc<SolverCache>,
    plans: Mutex<PlanCache>,
    /// Cumulative counters.
    pub counters: Counters,
    active: AtomicUsize,
    active_ids: Mutex<HashSet<String>>,
}

impl ServerState {
    /// Fresh state for `cfg`.
    pub fn new(cfg: ServerConfig) -> Self {
        let solver_cache = Arc::new(SolverCache::with_shards(
            cfg.cache_capacity.max(1),
            cfg.cache_shards.max(1),
        ));
        Self {
            cfg,
            solver_cache,
            plans: Mutex::new(PlanCache::default()),
            counters: Counters::default(),
            active: AtomicUsize::new(0),
            active_ids: Mutex::new(HashSet::new()),
        }
    }

    /// Look up a cached campaign plan by fingerprint, counting the
    /// lookup. On miss, call `build` and cache the result.
    pub fn plans_for(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> CampaignPlans,
    ) -> Arc<CampaignPlans> {
        self.counters.plan_lookups.fetch_add(1, Ordering::Relaxed);
        {
            let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(plans) = cache.plans.get(&fingerprint) {
                self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
                let plans = Arc::clone(plans);
                // Refresh recency.
                cache.order.retain(|k| *k != fingerprint);
                cache.order.push_back(fingerprint);
                return plans;
            }
        }
        // Build outside the lock. Planning solves nothing (the slots
        // fill as runs need them), but it walks the whole grid, and that
        // need not serialize unrelated submissions. Concurrent misses
        // on one fingerprint all return the first plan inserted, so
        // they share its solves.
        let built = Arc::new(build());
        let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let entry = cache
            .plans
            .entry(fingerprint)
            .or_insert_with(|| Arc::clone(&built))
            .clone();
        cache.order.retain(|k| *k != fingerprint);
        cache.order.push_back(fingerprint);
        while cache.plans.len() > self.cfg.plan_capacity.max(1) {
            if let Some(evict) = cache.order.pop_front() {
                cache.plans.remove(&evict);
            } else {
                break;
            }
        }
        entry
    }

    /// Try to admit one more campaign. Rejects with a retryable
    /// message when the server is at [`ServerConfig::max_campaigns`],
    /// and rejects a second concurrent run of the same campaign id,
    /// which would interleave appends in one checkpoint file.
    ///
    /// # Errors
    ///
    /// The message to embed in the `error` frame.
    pub fn try_admit(self: &Arc<Self>, id: &str) -> Result<AdmissionGuard, String> {
        let cap = self.cfg.max_campaigns.max(1);
        let mut current = self.active.load(Ordering::Relaxed);
        loop {
            if current >= cap {
                return Err(format!(
                    "server at capacity ({cap} campaigns running); retry later"
                ));
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        let mut ids = self.active_ids.lock().unwrap_or_else(|e| e.into_inner());
        if !ids.insert(id.to_string()) {
            drop(ids);
            self.active.fetch_sub(1, Ordering::AcqRel);
            return Err(format!("campaign `{id}` is already running"));
        }
        Ok(AdmissionGuard {
            state: Arc::clone(self),
            id: id.to_string(),
        })
    }

    /// Campaigns currently executing.
    pub fn active_campaigns(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// The `stats` reply frame for the current counters.
    pub fn stats_frame(&self) -> String {
        let solver = self.solver_cache.stats();
        let c = &self.counters;
        let plan_lookups = c.plan_lookups.load(Ordering::Relaxed);
        let plan_hits = c.plan_hits.load(Ordering::Relaxed);
        let mut b = ObjectBuilder::frame("stats");
        b.push_u64("solver_lookups", solver.lookups)
            .push_u64("solver_hits", solver.hits)
            .push_f64("solver_hit_rate", solver.hit_rate())
            .push_u64("solver_entries", solver.entries as u64)
            .push_u64("solver_shards", solver.shards as u64)
            .push_u64("plan_lookups", plan_lookups)
            .push_u64("plan_hits", plan_hits)
            .push_u64(
                "campaigns_accepted",
                c.campaigns_accepted.load(Ordering::Relaxed),
            )
            .push_u64(
                "campaigns_completed",
                c.campaigns_completed.load(Ordering::Relaxed),
            )
            .push_u64(
                "campaigns_failed",
                c.campaigns_failed.load(Ordering::Relaxed),
            )
            .push_u64("campaigns_active", self.active_campaigns() as u64)
            .push_u64("chunks_run", c.chunks_run.load(Ordering::Relaxed))
            .push_u64("chunks_replayed", c.chunks_replayed.load(Ordering::Relaxed))
            .push_u64(
                "records_streamed",
                c.records_streamed.load(Ordering::Relaxed),
            );
        b.finish()
    }

    /// The checkpoint path for a campaign id. Ids are sanitized to
    /// `[A-Za-z0-9._-]` (others become `_`) so a wire-supplied id can
    /// never escape the checkpoint directory.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        let safe: String = id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let safe = safe.trim_matches('.');
        let safe = if safe.is_empty() { "campaign" } else { safe };
        self.cfg.ckpt_dir.join(format!("{safe}.ckpt"))
    }
}

/// Holds one admission slot; dropping it releases the slot and the
/// campaign id.
#[derive(Debug)]
pub struct AdmissionGuard {
    state: Arc<ServerState>,
    id: String,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut ids = self
            .state
            .active_ids
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        ids.remove(&self.id);
        drop(ids);
        self.state.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(max: usize) -> Arc<ServerState> {
        Arc::new(ServerState::new(ServerConfig {
            max_campaigns: max,
            ..ServerConfig::default()
        }))
    }

    const TINY: &str = "acsched-scenario v1\n\
                        taskset pair\n\
                        task a period=10 wcec=300 acec=120 bcec=30\n\
                        task b period=20 wcec=600 acec=200 bcec=60\n\
                        end\n\
                        processor p linear kappa=50 vmin=0.3 vmax=4\n\
                        schedules wcs\n\
                        policy greedy\n\
                        workload paper\n\
                        hyper_periods 2\n\
                        synthesis quick\n";

    #[test]
    fn fingerprint_ignores_threads_but_not_axes() {
        let base = &format!("{TINY}seeds 1 2\n");
        let a = Scenario::from_text(base).unwrap();
        let b = Scenario::from_text(&format!("{base}threads 3\n")).unwrap();
        let c = Scenario::from_text(&base.replace("seeds 1 2", "seeds 1 3")).unwrap();
        let fa = scenario_fingerprint(&a).unwrap();
        assert_eq!(
            fa,
            scenario_fingerprint(&b).unwrap(),
            "threads must not change the fingerprint"
        );
        assert_ne!(
            fa,
            scenario_fingerprint(&c).unwrap(),
            "seed axis must change it"
        );
    }

    #[test]
    fn admission_caps_and_releases() {
        let s = state(2);
        let g1 = s.try_admit("a").expect("slot 1");
        let _g2 = s.try_admit("b").expect("slot 2");
        assert!(s.try_admit("c").unwrap_err().contains("at capacity"));
        drop(g1);
        assert_eq!(s.active_campaigns(), 1);
        let _g3 = s.try_admit("c").expect("slot freed");
    }

    #[test]
    fn duplicate_active_ids_are_rejected() {
        let s = state(8);
        let _g = s.try_admit("same").expect("first");
        assert!(s.try_admit("same").unwrap_err().contains("already running"));
        assert_eq!(
            s.active_campaigns(),
            1,
            "rejected admit must release its slot"
        );
    }

    #[test]
    fn checkpoint_path_neuters_traversal() {
        let s = state(1);
        let p = s.checkpoint_path("../../etc/passwd");
        assert!(p.ends_with("_.._etc_passwd.ckpt"), "{p:?}");
        assert!(s.checkpoint_path("").ends_with("campaign.ckpt"));
    }

    #[test]
    fn plan_cache_counts_hits_and_evicts_lru() {
        let cfg = ServerConfig {
            plan_capacity: 2,
            ..ServerConfig::default()
        };
        let s = ServerState::new(cfg);
        let dummy = || {
            // Any scenario works; the cache never inspects the plans.
            let sc = Scenario::from_text(TINY).unwrap();
            sc.campaign_builder().unwrap().build().unwrap().plan()
        };
        let a = s.plans_for(1, dummy);
        let a2 = s.plans_for(1, || unreachable!("hit must not rebuild"));
        assert!(Arc::ptr_eq(&a, &a2));
        let _ = s.plans_for(2, dummy);
        let _ = s.plans_for(3, dummy); // evicts fingerprint 1
        let _ = s.plans_for(1, dummy); // rebuild after eviction
        assert_eq!(s.counters.plan_lookups.load(Ordering::Relaxed), 5);
        assert_eq!(s.counters.plan_hits.load(Ordering::Relaxed), 1);
    }
}
