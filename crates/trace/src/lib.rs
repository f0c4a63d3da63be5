//! # acs-trace
//!
//! Arrival sources and the streaming `acsched-trace v1` format for the
//! `acsched` workspace — the layer that opens the strictly periodic
//! simulator to sporadic, bursty and trace-driven traffic.
//!
//! Everything the engine ran before this crate existed was released on
//! the periodic grid `k·Pᵢ`. An [`ArrivalSource`] instead *produces*
//! job releases, one hyper-period window at a time, and `acs-sim`
//! feeds them to its event queue as native `Release` events. The
//! periodic grid itself is not a source: a cell with no source attached
//! runs the engine's built-in releases. Three generated sources ship
//! here:
//!
//! * [`Sporadic`] — minimum inter-arrival `Pᵢ` plus bounded uniform
//!   jitter, the classic sporadic task model;
//! * [`Poisson`] — memoryless arrivals with mean inter-arrival `Pᵢ`;
//! * [`Mmpp`] — a two-state Markov-modulated Poisson process with
//!   [`MmppProfile`] light/bursty/heavy presets, in the spirit of the
//!   EAPS workload generator.
//!
//! Every generated stream is a **pure function of `(seed, task)`**:
//! each task draws from its own [`rng`] stream keyed by
//! `mix(seed, task)`, so streams never interact and a campaign can
//! re-key per core as `(seed, set, core)` without cross-talk.
//!
//! The second half of the crate is the `acsched-trace v1` text format
//! (`docs/TRACE_FORMAT.md`): a self-contained task prologue followed by
//! one `arrival_ms task_id cycles` record per job. [`TraceReader`]
//! streams records through a bounded buffer — a multi-GB trace never
//! loads fully — and [`TraceSource`] adapts it into an
//! [`ArrivalSource`]. [`TraceWriter`] and [`generate`] produce traces
//! (the CLI's `acsched trace gen` synthesizes million-job traces from
//! the MMPP presets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod gen;
pub mod rng;
mod source;

pub use error::TraceError;
pub use format::{TraceReader, TraceRecord, TraceSource, TraceWriter, TRACE_HEADER};
pub use gen::{builtin_task_set, generate, GenConfig, GenSummary};
pub use source::{ArrivalJob, ArrivalKind, ArrivalSource, Mmpp, MmppProfile, Poisson, Sporadic};
