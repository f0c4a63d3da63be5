//! Arrival sources: deterministic, seed-keyed job release streams.
//!
//! An [`ArrivalSource`] produces the job releases of one hyper-period
//! *window* at a time — window `w` covers absolute time
//! `[w·H, (w+1)·H)` ms and releases are reported window-local, which is
//! exactly the coordinate system the engine's per-hyper-period event
//! queue runs in. A release near the end of a window may carry a
//! deadline past `H`; the engine lets the window overrun until its
//! jobs complete.
//!
//! Determinism contract: every generated stream is a pure function of
//! `(seed, task)` — task `i` draws from a private
//! [`Stream`](crate::rng::Stream) keyed `mix(seed, i)`, so the stream
//! of one task is unchanged by the presence, parameters or consumption
//! of any other.

use crate::error::TraceError;
use crate::rng::{mix, Stream};
use acs_model::TaskSet;
use std::fmt;
use std::str::FromStr;

/// One job release produced by an [`ArrivalSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalJob {
    /// Task index within the set.
    pub task: usize,
    /// Release time, ms, window-local (`0 ≤ release < H`).
    pub release_ms: f64,
    /// Absolute deadline, ms, window-local (may exceed `H`).
    pub deadline_ms: f64,
    /// Index handed to the workload draw function when
    /// [`ArrivalJob::cycles`] is `None`: generated sources emit a
    /// per-task sequence number (pure in `(seed, task)`).
    pub draw_index: u64,
    /// Execution cycles when the source carries them (trace-driven
    /// jobs); `None` lets the cell's workload model draw.
    pub cycles: Option<f64>,
}

/// A deterministic producer of aperiodic job releases, consumed one
/// hyper-period window at a time (windows must be filled in order,
/// `0, 1, 2, …`). The strictly periodic grid `k·Pᵢ` is not a source:
/// the engine releases it itself whenever no source is attached.
///
/// `Send` so campaign runners can build a source on one thread and
/// consume it on a worker.
pub trait ArrivalSource: Send {
    /// Short stable name (doubles as the campaign's `arrivals` label).
    fn name(&self) -> &'static str;

    /// Appends every job released in window `window` to `out`, with
    /// window-local release times. Jobs of one task must be emitted in
    /// release order.
    ///
    /// `out` is a caller-owned scratch buffer: the engine clears and
    /// reuses **one** buffer across every window of a run (its
    /// steady-state loop is allocation-free), so implementations must
    /// only append — never clear, shrink or replace the vector — and
    /// should `reserve` when the window's job count is known up front.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on malformed trace records or out-of-order
    /// window requests.
    fn fill_window(&mut self, window: u64, out: &mut Vec<ArrivalJob>) -> Result<(), TraceError>;

    /// `true` once the source can produce no further job in any later
    /// window (finite traces; generators never exhaust).
    fn exhausted(&self) -> bool {
        false
    }
}

/// MMPP burstiness presets (rate multipliers and dwell lengths for the
/// two modulating states, all relative to each task's period `P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmppProfile {
    /// Calm traffic: both states release *below* the periodic rate
    /// (0.3×/0.7× for ~8P each) — mean demand ≈ half the periodic load.
    Light,
    /// Long quiet spells (0.15× for ~12P) punctuated by 3× bursts
    /// (~3P) — mean demand ≈ 0.72× periodic, but burst demand is 3×.
    Bursty,
    /// Sustained overload: 0.8×/1.6× in equal measure — mean demand
    /// 1.2× periodic, the loud-infeasibility stress profile.
    Heavy,
}

impl MmppProfile {
    /// The preset's stable label (`light`/`bursty`/`heavy`).
    pub fn label(&self) -> &'static str {
        match self {
            MmppProfile::Light => "light",
            MmppProfile::Bursty => "bursty",
            MmppProfile::Heavy => "heavy",
        }
    }

    /// `(rates, dwells)`: per-state arrival-rate multipliers of `1/P`
    /// and mean state dwell times in multiples of `P`.
    pub(crate) fn params(&self) -> ([f64; 2], [f64; 2]) {
        match self {
            MmppProfile::Light => ([0.3, 0.7], [8.0, 8.0]),
            MmppProfile::Bursty => ([0.15, 3.0], [12.0, 3.0]),
            MmppProfile::Heavy => ([0.8, 1.6], [6.0, 6.0]),
        }
    }
}

impl fmt::Display for MmppProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for MmppProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "light" => Ok(MmppProfile::Light),
            "bursty" => Ok(MmppProfile::Bursty),
            "heavy" => Ok(MmppProfile::Heavy),
            other => Err(format!(
                "unknown mmpp profile `{other}` (known: light, bursty, heavy)"
            )),
        }
    }
}

/// The per-task generator state machine behind the generated sources.
#[derive(Debug, Clone)]
enum Process {
    /// Next gap `P·(1 + jitter·u)`, `u ∈ [0, 1)` — never below `P`.
    Sporadic { jitter: f64 },
    /// Memoryless gaps with mean `P`.
    Poisson,
    /// Two-state MMPP: exponential gaps at the current state's rate;
    /// a candidate past the state's end is discarded (memorylessness
    /// makes that exact) and the state flips.
    Mmpp {
        rates: [f64; 2],
        dwells: [f64; 2],
        state: usize,
        state_end: f64,
    },
}

/// One task's private stream: RNG, timing parameters, and the next
/// not-yet-emitted arrival.
#[derive(Debug, Clone)]
struct TaskStream {
    rng: Stream,
    period_ms: f64,
    deadline_ms: f64,
    /// Absolute time of the next arrival to emit.
    pending: f64,
    /// Per-task arrival sequence number (the job's `draw_index`).
    seq: u64,
    proc: Process,
}

impl TaskStream {
    fn new(period_ms: f64, deadline_ms: f64, seed: u64, proc: Process) -> Self {
        let mut s = TaskStream {
            rng: Stream::new(seed),
            period_ms,
            deadline_ms,
            pending: 0.0,
            seq: 0,
            proc,
        };
        // The first arrival is one gap past time zero, so no stream
        // collides with the schedule-relevant release at t = 0.
        s.pending = s.next_after(0.0);
        s
    }

    /// The first arrival strictly following time `from`.
    fn next_after(&mut self, from: f64) -> f64 {
        match &mut self.proc {
            Process::Sporadic { jitter } => {
                from + self.period_ms * (1.0 + *jitter * self.rng.next_f64())
            }
            Process::Poisson => from + self.rng.next_exp(self.period_ms),
            Process::Mmpp {
                rates,
                dwells,
                state,
                state_end,
            } => {
                let mut now = from;
                loop {
                    let mean_gap = self.period_ms / rates[*state];
                    let gap = self.rng.next_exp(mean_gap);
                    if now + gap <= *state_end {
                        return now + gap;
                    }
                    // No arrival before the state ends: jump to the
                    // boundary, flip, redraw (exact for a Poisson
                    // process by memorylessness).
                    now = *state_end;
                    *state = 1 - *state;
                    *state_end = now + self.rng.next_exp(self.period_ms * dwells[*state]);
                }
            }
        }
    }
}

/// Shared machinery of the generated sources.
#[derive(Debug, Clone)]
struct Generated {
    streams: Vec<TaskStream>,
    h_ms: f64,
    next_window: u64,
}

impl Generated {
    fn new(set: &TaskSet, seed: u64, make: impl Fn(&mut Stream, f64) -> Process) -> Self {
        let streams = set
            .tasks()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // Key the task's stream by (seed, task). `make` may
                // draw from the key stream (MMPP seeds its initial
                // dwell there) before the arrival stream is forked off.
                let period_ms = t.period().get() as f64;
                let mut key = Stream::new(mix(seed, i as u64));
                let proc = make(&mut key, period_ms);
                TaskStream::new(period_ms, t.deadline().get() as f64, key.next_u64(), proc)
            })
            .collect();
        Generated {
            streams,
            h_ms: set.hyper_period().get() as f64,
            next_window: 0,
        }
    }

    fn fill_window(&mut self, window: u64, out: &mut Vec<ArrivalJob>) -> Result<(), TraceError> {
        if window != self.next_window {
            return Err(TraceError::msg(format!(
                "arrival windows must be filled in order: expected {}, got {window}",
                self.next_window
            )));
        }
        self.next_window += 1;
        let start = window as f64 * self.h_ms;
        let end = (window + 1) as f64 * self.h_ms;
        for (task, s) in self.streams.iter_mut().enumerate() {
            while s.pending < end {
                let release = s.pending - start;
                out.push(ArrivalJob {
                    task,
                    release_ms: release,
                    deadline_ms: release + s.deadline_ms,
                    draw_index: s.seq,
                    cycles: None,
                });
                s.seq += 1;
                s.pending = s.next_after(s.pending);
            }
        }
        Ok(())
    }
}

/// Sporadic arrivals: minimum inter-arrival `Pᵢ` plus bounded uniform
/// jitter (`gap ∈ [P, P·(1 + JITTER))`).
#[derive(Debug, Clone)]
pub struct Sporadic {
    gen: Generated,
}

impl Sporadic {
    /// Upper jitter bound as a fraction of the period.
    pub const JITTER: f64 = 0.5;

    /// A sporadic source over `set`, keyed by `seed`.
    pub fn new(set: &TaskSet, seed: u64) -> Self {
        Sporadic {
            gen: Generated::new(set, seed, |_, _| Process::Sporadic {
                jitter: Self::JITTER,
            }),
        }
    }
}

impl ArrivalSource for Sporadic {
    fn name(&self) -> &'static str {
        "sporadic"
    }

    fn fill_window(&mut self, window: u64, out: &mut Vec<ArrivalJob>) -> Result<(), TraceError> {
        self.gen.fill_window(window, out)
    }
}

/// Poisson arrivals with mean inter-arrival `Pᵢ` per task.
#[derive(Debug, Clone)]
pub struct Poisson {
    gen: Generated,
}

impl Poisson {
    /// A Poisson source over `set`, keyed by `seed`.
    pub fn new(set: &TaskSet, seed: u64) -> Self {
        Poisson {
            gen: Generated::new(set, seed, |_, _| Process::Poisson),
        }
    }
}

impl ArrivalSource for Poisson {
    fn name(&self) -> &'static str {
        "poisson"
    }

    fn fill_window(&mut self, window: u64, out: &mut Vec<ArrivalJob>) -> Result<(), TraceError> {
        self.gen.fill_window(window, out)
    }
}

/// Markov-modulated Poisson arrivals (two states, [`MmppProfile`]
/// presets).
#[derive(Debug, Clone)]
pub struct Mmpp {
    gen: Generated,
    profile: MmppProfile,
}

impl Mmpp {
    /// An MMPP source over `set`, keyed by `seed`, with the preset's
    /// rates and dwells.
    pub fn new(set: &TaskSet, seed: u64, profile: MmppProfile) -> Self {
        let (rates, dwells) = profile.params();
        Mmpp {
            gen: Generated::new(set, seed, |key, period_ms| Process::Mmpp {
                rates,
                dwells,
                state: 0,
                state_end: key.next_exp(period_ms * dwells[0]),
            }),
            profile,
        }
    }
}

impl ArrivalSource for Mmpp {
    fn name(&self) -> &'static str {
        match self.profile {
            MmppProfile::Light => "mmpp:light",
            MmppProfile::Bursty => "mmpp:bursty",
            MmppProfile::Heavy => "mmpp:heavy",
        }
    }

    fn fill_window(&mut self, window: u64, out: &mut Vec<ArrivalJob>) -> Result<(), TraceError> {
        self.gen.fill_window(window, out)
    }
}

/// The campaign's `arrivals` axis value: which arrival process drives
/// a cell's releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalKind {
    /// Strictly periodic releases: the engine's built-in grid, no source
    /// attached (the default).
    Periodic,
    /// Minimum inter-arrival plus bounded jitter.
    Sporadic,
    /// Memoryless arrivals at the periodic rate.
    Poisson,
    /// Markov-modulated bursts with the given preset.
    Mmpp(MmppProfile),
}

impl ArrivalKind {
    /// The axis value's stable label, used in reports, CSV/JSONL
    /// columns and the scenario text format.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalKind::Periodic => "periodic",
            ArrivalKind::Sporadic => "sporadic",
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Mmpp(MmppProfile::Light) => "mmpp:light",
            ArrivalKind::Mmpp(MmppProfile::Bursty) => "mmpp:bursty",
            ArrivalKind::Mmpp(MmppProfile::Heavy) => "mmpp:heavy",
        }
    }

    /// `true` for the periodic kind (cells run the engine's built-in
    /// release grid with no source attached, byte-identical with v3).
    pub fn is_periodic(&self) -> bool {
        matches!(self, ArrivalKind::Periodic)
    }

    /// Instantiates the source for one cell, keyed by `seed` (callers
    /// mix set and core indices into the seed first); `None` for
    /// [`ArrivalKind::Periodic`], whose cells attach no source and run
    /// the engine's built-in release grid.
    pub fn source(&self, set: &TaskSet, seed: u64) -> Option<Box<dyn ArrivalSource>> {
        match self {
            ArrivalKind::Periodic => None,
            ArrivalKind::Sporadic => Some(Box::new(Sporadic::new(set, seed))),
            ArrivalKind::Poisson => Some(Box::new(Poisson::new(set, seed))),
            ArrivalKind::Mmpp(profile) => Some(Box::new(Mmpp::new(set, seed, *profile))),
        }
    }
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "periodic" => Ok(ArrivalKind::Periodic),
            "sporadic" => Ok(ArrivalKind::Sporadic),
            "poisson" => Ok(ArrivalKind::Poisson),
            // Bare `mmpp` means the bursty preset — the profile this
            // axis exists for.
            "mmpp" => Ok(ArrivalKind::Mmpp(MmppProfile::Bursty)),
            other => match other.strip_prefix("mmpp:") {
                Some(profile) => Ok(ArrivalKind::Mmpp(profile.parse()?)),
                None => Err(format!(
                    "unknown arrival kind `{other}` (known: periodic, sporadic, poisson, \
                     mmpp[:light|bursty|heavy])"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Cycles, Ticks};
    use acs_model::Task;

    fn set() -> TaskSet {
        TaskSet::new(vec![
            Task::builder("a", Ticks::new(10))
                .wcec(Cycles::from_cycles(100.0))
                .build()
                .unwrap(),
            Task::builder("b", Ticks::new(20))
                .wcec(Cycles::from_cycles(200.0))
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    fn drain(src: &mut dyn ArrivalSource, windows: u64) -> Vec<ArrivalJob> {
        let mut out = Vec::new();
        for w in 0..windows {
            src.fill_window(w, &mut out).unwrap();
        }
        out
    }

    #[test]
    fn sporadic_never_violates_minimum_inter_arrival() {
        let set = set();
        for seed in 0..16 {
            let h = set.hyper_period().get() as f64;
            let mut out = Vec::new();
            let mut src = Sporadic::new(&set, seed);
            let mut last = vec![f64::NEG_INFINITY; set.len()];
            for w in 0..50u64 {
                out.clear();
                src.fill_window(w, &mut out).unwrap();
                for j in &out {
                    let abs = w as f64 * h + j.release_ms;
                    let period = set.tasks()[j.task].period().get() as f64;
                    if last[j.task].is_finite() {
                        assert!(
                            abs - last[j.task] >= period - 1e-9,
                            "seed {seed} task {} gap {} < {period}",
                            j.task,
                            abs - last[j.task]
                        );
                    }
                    last[j.task] = abs;
                }
            }
        }
    }

    #[test]
    fn generated_streams_are_pure_in_seed_and_task() {
        let set = set();
        let a = drain(&mut Poisson::new(&set, 7), 20);
        let b = drain(&mut Poisson::new(&set, 7), 20);
        assert_eq!(a, b);
        let c = drain(&mut Poisson::new(&set, 8), 20);
        assert_ne!(a, c);
        // Task 0's stream is identical even when the set grows another
        // task: streams are keyed (seed, task), not global.
        let bigger = TaskSet::new(vec![
            Task::builder("a", Ticks::new(10))
                .wcec(Cycles::from_cycles(100.0))
                .build()
                .unwrap(),
            Task::builder("b", Ticks::new(20))
                .wcec(Cycles::from_cycles(200.0))
                .build()
                .unwrap(),
            Task::builder("c", Ticks::new(20))
                .wcec(Cycles::from_cycles(50.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let d = drain(&mut Poisson::new(&bigger, 7), 20);
        let t0_a: Vec<f64> = a
            .iter()
            .filter(|j| j.task == 0)
            .map(|j| j.release_ms)
            .collect();
        let t0_d: Vec<f64> = d
            .iter()
            .filter(|j| j.task == 0)
            .map(|j| j.release_ms)
            .collect();
        assert_eq!(t0_a, t0_d);
    }

    #[test]
    fn mmpp_presets_modulate_the_rate() {
        let set = set();
        let windows = 200;
        let count = |profile| {
            drain(&mut Mmpp::new(&set, 3, profile), windows)
                .iter()
                .filter(|j| j.task == 0)
                .count() as f64
        };
        let periodic_jobs = (windows * 2) as f64; // task 0: 2 instances/window
        let light = count(MmppProfile::Light);
        let bursty = count(MmppProfile::Bursty);
        let heavy = count(MmppProfile::Heavy);
        // Mean rates: light ≈ 0.5×, bursty ≈ 0.72×, heavy ≈ 1.2×.
        assert!(light < periodic_jobs, "light {light} vs {periodic_jobs}");
        assert!(heavy > periodic_jobs, "heavy {heavy} vs {periodic_jobs}");
        assert!(light < bursty && bursty < heavy, "{light} {bursty} {heavy}");
    }

    #[test]
    fn windows_must_be_filled_in_order() {
        let set = set();
        let mut src = Poisson::new(&set, 1);
        let mut out = Vec::new();
        src.fill_window(0, &mut out).unwrap();
        let err = src.fill_window(2, &mut out).unwrap_err();
        assert!(err.message.contains("in order"), "{err}");
    }

    #[test]
    fn arrival_kind_labels_round_trip() {
        let kinds = [
            ArrivalKind::Periodic,
            ArrivalKind::Sporadic,
            ArrivalKind::Poisson,
            ArrivalKind::Mmpp(MmppProfile::Light),
            ArrivalKind::Mmpp(MmppProfile::Bursty),
            ArrivalKind::Mmpp(MmppProfile::Heavy),
        ];
        for k in kinds {
            assert_eq!(k.label().parse::<ArrivalKind>().unwrap(), k);
        }
        assert_eq!(
            "mmpp".parse::<ArrivalKind>().unwrap(),
            ArrivalKind::Mmpp(MmppProfile::Bursty)
        );
        assert!("warp".parse::<ArrivalKind>().unwrap_err().contains("known"));
        // Source names agree with axis labels; the periodic kind has no
        // source.
        let set = set();
        for k in kinds {
            match k.source(&set, 0) {
                Some(src) => assert_eq!(src.name(), k.label()),
                None => assert_eq!(k, ArrivalKind::Periodic),
            }
        }
    }

    #[test]
    fn releases_are_window_local_and_in_range() {
        let set = set();
        let h = set.hyper_period().get() as f64;
        for kind in [
            ArrivalKind::Sporadic,
            ArrivalKind::Poisson,
            ArrivalKind::Mmpp(MmppProfile::Bursty),
        ] {
            let mut src = kind
                .source(&set, 11)
                .expect("aperiodic kinds have a source");
            let mut out = Vec::new();
            for w in 0..30u64 {
                out.clear();
                src.fill_window(w, &mut out).unwrap();
                for j in &out {
                    assert!(
                        j.release_ms >= 0.0 && j.release_ms < h,
                        "{kind}: release {} outside [0, {h})",
                        j.release_ms
                    );
                    assert!(j.deadline_ms > j.release_ms);
                    assert!(j.cycles.is_none());
                }
            }
            assert!(!src.exhausted(), "{kind}: generators never exhaust");
        }
    }
}
