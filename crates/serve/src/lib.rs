//! # acs-serve
//!
//! A campaign server for the `acsched` workspace: `acsched serve`
//! keeps one long-lived process whose sharded
//! [`SolverCache`](acs_sim::SolverCache) and campaign plan cache stay
//! warm across submissions, and `acsched submit` streams scenarios to
//! it over a line-oriented TCP protocol (one flat JSON object per
//! line — built on `std::net`, no external crates).
//!
//! The pieces, bottom-up:
//!
//! - [`json`] — the flat single-line JSON codec shared by the wire
//!   protocol and the checkpoint files.
//! - [`protocol`] — frame grammar and parse/build helpers
//!   (`hello`/`submit`/`record`/`progress`/`done`/`stats`/`error`).
//! - [`checkpoint`] — append-only, CRC-32-guarded, fsync'd per-campaign
//!   chunk logs; a corrupt or truncated line costs exactly one chunk
//!   on resume.
//! - [`state`] — process-wide [`ServerState`]: shared solver cache,
//!   fingerprint-keyed plan cache, admission control, counters.
//! - [`server`] — the accept loop and the chunked, checkpointed,
//!   backpressured campaign executor.
//! - [`client`] — [`submit`] / [`stats`]
//!   used by the CLI and tests.
//!
//! Served `record` frames carry the exact `CsvSink` rows in global
//! grid order, so `CSV_HEADER` + rows is byte-identical to
//! `acsched run` output for the same scenario (for scenarios without a
//! `reopt` policy — the shared solver cache changes only reopt's
//! solver-call *counters*, never results; see `docs/SERVER.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::{stats, submit, SubmitOptions, SubmitOutcome};
pub use protocol::PROTO_VERSION;
pub use server::{handle_connection, serve, serve_on};
pub use state::{scenario_fingerprint, ServerConfig, ServerState};
