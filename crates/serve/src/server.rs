//! The campaign server: a `TcpListener` accept loop, one thread per
//! connection, and the chunked, checkpointed campaign executor behind
//! the `submit` frame.
//!
//! ## Execution model
//!
//! A submitted scenario is validated with the `acs-scenario` parser,
//! then built into a `Campaign` that shares the server's process-wide
//! [`SolverCache`](acs_sim::SolverCache). Campaign plans come from the
//! fingerprint-keyed plan cache. A plan solves nothing up front: each
//! WCS/ACS solve runs on the chunk worker whose run first needs it, so
//! `accepted` goes out before any synthesis, and submissions sharing a
//! cached plan share its solves (a resubmission finds them done). The
//! cell grid is split into contiguous
//! fixed-size chunks; a bounded in-order worker pool
//! ([`parallel_for_in_order`]) runs each chunk through
//! `Campaign::run_range_with` (one thread per chunk — parallelism
//! comes from running chunks concurrently), while the consumer on the
//! connection thread takes chunks in global cell order, appends each
//! finished chunk to the campaign's checkpoint (fsync'd), and only
//! then sends the chunk's `record` frames and its `progress` frame,
//! all in one write. A client therefore never holds a record whose
//! chunk is not on disk. The in-flight bound is the backpressure knob:
//! a slow client socket or a slow disk stalls the workers instead of
//! buffering the whole campaign in memory.
//!
//! Sockets run with `TCP_NODELAY`: every write is a whole frame or a
//! whole chunk, so Nagle's algorithm has nothing to coalesce and would
//! only hold each write for the client's delayed ACK (40 ms on Linux).
//!
//! Because per-run draw streams are keyed by `(seed, task-set, core)`
//! — not by thread or chunk placement — the concatenated `record` rows
//! are byte-identical to what `acsched run` writes for the same
//! scenario, at any chunk size, thread count or resume split.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use acs_runtime::pool::parallel_for_in_order;
use acs_runtime::sink::csv_row;
use acs_runtime::{Campaign, CampaignPlans, CellRecord, ResultSink};
use acs_scenario::Scenario;

use crate::checkpoint::{self, CheckpointWriter, ChunkEntry, Header};
use crate::json::ObjectBuilder;
use crate::protocol::{
    error_frame, hello_reply, parse_request, progress_frame, record_frame, Request, SubmitRequest,
    PROTO_VERSION,
};
use crate::state::{scenario_fingerprint, ServerConfig, ServerState};

/// Bind `cfg.addr`, print `listening on <addr>` (the bound address, so
/// `:0` is usable by scripts), and serve forever.
///
/// # Errors
///
/// Returns the bind/accept error; per-connection errors only drop that
/// connection.
pub fn serve(cfg: ServerConfig) -> io::Result<()> {
    let listener = TcpListener::bind(&cfg.addr)?;
    println!("listening on {}", listener.local_addr()?);
    serve_on(listener, Arc::new(ServerState::new(cfg)))
}

/// Serve connections from an already-bound listener — the testable
/// core of [`serve`]: tests bind port 0 themselves, read the local
/// address, and run this on a background thread.
///
/// # Errors
///
/// Returns accept-loop errors; per-connection errors only drop that
/// connection.
pub fn serve_on(listener: TcpListener, state: Arc<ServerState>) -> io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            // A dropped/errored connection is the client's problem;
            // the server state is consistent at every frame boundary.
            let _ = handle_connection(stream, state);
        });
    }
}

/// Drive one connection's request loop.
///
/// Malformed lines, including lines that are not UTF-8, produce an
/// `error` frame carrying the 1-based line number and leave the
/// connection open; only transport errors (or a client hangup) end the
/// loop.
///
/// # Errors
///
/// Returns the transport error that ended the connection.
pub fn handle_connection(stream: TcpStream, state: Arc<ServerState>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line_no = 0u64;
    let mut greeted = false;
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        if reader.read_until(b'\n', &mut bytes)? == 0 {
            break;
        }
        line_no += 1;
        // Strip `\n` or `\r\n`, as `BufRead::lines` does.
        let raw = bytes
            .strip_suffix(b"\n")
            .map_or(&bytes[..], |l| l.strip_suffix(b"\r").unwrap_or(l));
        let line = match std::str::from_utf8(raw) {
            Ok(line) => line,
            Err(e) => {
                let message = format!(
                    "line is not valid UTF-8 (first invalid byte at offset {})",
                    e.valid_up_to()
                );
                send(&mut writer, &error_frame(line_no, &message))?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Err(message) => send(&mut writer, &error_frame(line_no, &message))?,
            Ok(Request::Hello { proto }) => {
                if proto == PROTO_VERSION {
                    greeted = true;
                    send(&mut writer, &hello_reply())?;
                } else {
                    send(
                        &mut writer,
                        &error_frame(
                            line_no,
                            &format!(
                                "unsupported protocol version {proto} (server speaks {PROTO_VERSION})"
                            ),
                        ),
                    )?;
                }
            }
            Ok(_) if !greeted => send(
                &mut writer,
                &error_frame(line_no, "first frame must be `hello`"),
            )?,
            Ok(Request::Stats) => send(&mut writer, &state.stats_frame())?,
            Ok(Request::Submit(req)) => match run_submission(&mut writer, line_no, &req, &state) {
                Ok(()) => {}
                // Rejections before execution keep the connection open.
                Err(SubmitError::Rejected(message)) => {
                    send(&mut writer, &error_frame(line_no, &message))?;
                }
                // Mid-campaign failures already sent their error frame
                // (best-effort); transport errors end the connection.
                Err(SubmitError::Transport(e)) => return Err(e),
            },
        }
    }
    Ok(())
}

enum SubmitError {
    /// The submission never started executing; reported as an `error`
    /// frame on the still-usable connection.
    Rejected(String),
    /// The connection itself failed.
    Transport(io::Error),
}

impl From<io::Error> for SubmitError {
    fn from(e: io::Error) -> Self {
        SubmitError::Transport(e)
    }
}

/// Collects the records of one chunk in memory (chunks are small — a
/// handful of cells — so this is bounded by `chunk_size`).
#[derive(Default)]
struct ChunkSink {
    rows: Vec<String>,
    failed: usize,
}

impl ResultSink for ChunkSink {
    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        if record.cell.outcome.is_err() {
            self.failed += 1;
        }
        self.rows.push(csv_row(record));
        Ok(())
    }
}

/// Runs chunk `k`, the cells `range`, on one thread. A panic anywhere
/// in its runs (a solve, the engine, a custom policy) becomes an `Err`
/// like any other chunk failure, naming the chunk, its cell range and
/// the panic message, so the submission ends in an `error` frame and
/// counts as failed. A solve that panicked stays unsolved in the shared
/// plan, so a resubmission retries it.
fn run_chunk(
    campaign: &Campaign,
    plans: &CampaignPlans,
    k: usize,
    range: Range<usize>,
) -> Result<ChunkEntry, String> {
    let (lo, hi) = (range.start, range.end);
    let mut sink = ChunkSink::default();
    panic::catch_unwind(AssertUnwindSafe(|| {
        campaign.run_range_with(plans, range, 1, &mut sink)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        Err(io::Error::other(format!("panicked: {message}")))
    })
    .map_err(|e| format!("chunk {k} ({lo}..{hi}): {e}"))?;
    Ok(ChunkEntry {
        chunk: k,
        lo,
        hi,
        failed: sink.failed,
        rows: sink.rows,
    })
}

fn send(writer: &mut BufWriter<TcpStream>, frame: &str) -> io::Result<()> {
    writer.write_all(frame.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn run_submission(
    writer: &mut BufWriter<TcpStream>,
    line_no: u64,
    req: &SubmitRequest,
    state: &Arc<ServerState>,
) -> Result<(), SubmitError> {
    // 1. Validate the scenario text. Parser messages carry their own
    //    `line N:` prefix — that is the line inside the scenario, while
    //    the frame's `line` field is the connection line number.
    let scenario = Scenario::from_text(&req.scenario)
        .map_err(|e| SubmitError::Rejected(format!("scenario: {e}")))?;
    let fingerprint = scenario_fingerprint(&scenario).map_err(SubmitError::Rejected)?;
    let id = req
        .id
        .clone()
        .unwrap_or_else(|| format!("{fingerprint:016x}"));

    // 2. Admission control: a slot and an exclusive hold on the id.
    let guard = state.try_admit(&id).map_err(SubmitError::Rejected)?;

    // 3. Build the campaign against the server's shared solver cache.
    let threads = req.threads.unwrap_or(state.cfg.threads).max(1);
    let campaign = scenario
        .campaign_builder_with_cache(Some(&state.solver_cache))
        .map_err(|e| SubmitError::Rejected(format!("scenario: {e}")))?
        .threads(threads)
        .build()
        .map_err(|e| SubmitError::Rejected(format!("campaign: {e}")))?;
    let cells = campaign.cell_count();
    let runs = campaign.run_count();
    let seeds = runs.checked_div(cells).unwrap_or(0);

    // 4. Resume state. The checkpoint's chunk size wins on resume so
    //    recorded ranges keep lining up with chunk boundaries.
    let ckpt_path = state.checkpoint_path(&id);
    let fingerprint_hex = format!("{fingerprint:016x}");
    let mut resumed = std::collections::HashMap::new();
    let mut corrupt_lines = 0usize;
    let mut chunk_size = req.chunk.unwrap_or(state.cfg.default_chunk_size).max(1);
    if req.resume {
        if let Some(loaded) = checkpoint::load(&ckpt_path).map_err(SubmitError::Transport)? {
            if loaded.header.fingerprint != fingerprint_hex
                || loaded.header.cells != cells
                || loaded.header.runs != runs
            {
                return Err(SubmitError::Rejected(format!(
                    "checkpoint for campaign `{id}` belongs to a different scenario \
                     (fingerprint {}, {} cells); submit without resume to overwrite",
                    loaded.header.fingerprint, loaded.header.cells
                )));
            }
            chunk_size = loaded.header.chunk_size;
            resumed = loaded.chunks;
            corrupt_lines = loaded.corrupt_lines;
        }
    }
    let n_chunks = cells.div_ceil(chunk_size.max(1)).max(1);

    // 5. Open the checkpoint: append on resume, truncate otherwise.
    let header = Header {
        campaign: id.clone(),
        fingerprint: fingerprint_hex,
        cells,
        runs,
        chunk_size,
    };
    let mut ckpt = if req.resume && !resumed.is_empty() {
        CheckpointWriter::open_append(&ckpt_path)
    } else {
        CheckpointWriter::create(&ckpt_path, &header)
    }
    .map_err(|e| SubmitError::Rejected(format!("checkpoint `{}`: {e}", ckpt_path.display())))?;

    // 6. Campaign plans, shared across submissions by fingerprint.
    //    Nothing is solved here; chunk workers solve on first need.
    state
        .counters
        .campaigns_accepted
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let plans = state.plans_for(fingerprint, || campaign.plan());

    let mut accepted = ObjectBuilder::frame("accepted");
    accepted
        .push_str("id", &id)
        .push_u64("cells", cells as u64)
        .push_u64("runs", runs as u64)
        .push_u64("seeds", seeds as u64)
        .push_u64("chunks", n_chunks as u64)
        .push_u64("chunk_size", chunk_size as u64)
        .push_u64("resumed_chunks", resumed.len() as u64)
        .push_u64("corrupt_lines", corrupt_lines as u64);
    send(writer, &accepted.finish())?;

    // 7. Execute. Workers produce chunks (or replay them); the consumer
    //    takes them in global order, checkpoints each fresh chunk, and
    //    only then sends its records and progress as one write.
    //    `max_inflight_chunks` bounds how far workers run ahead of this
    //    connection's socket + disk.
    let resumed = &resumed;
    let campaign = &campaign;
    let plans_ref: &CampaignPlans = &plans;
    let mut cells_done = 0usize;
    let mut failed_total = 0usize;
    let mut chunks_run = 0usize;
    let mut chunks_replayed = 0usize;
    let mut frames = String::new();
    let relaxed = std::sync::atomic::Ordering::Relaxed;

    let outcome: Result<(), SubmitError> = parallel_for_in_order(
        n_chunks,
        threads,
        state.cfg.max_inflight_chunks,
        |k| -> Result<(ChunkEntry, bool), String> {
            match resumed.get(&k) {
                Some(entry) => Ok((entry.clone(), true)),
                None => {
                    let lo = k * chunk_size;
                    run_chunk(campaign, plans_ref, k, lo..(lo + chunk_size).min(cells))
                        .map(|entry| (entry, false))
                }
            }
        },
        |k, produced| -> Result<(), SubmitError> {
            let (entry, replayed) = produced.map_err(|message| {
                let _ = send(writer, &error_frame(line_no, &message));
                SubmitError::Transport(io::Error::other(message))
            })?;
            // The chunk is on disk before any of its records leaves, so
            // every record a client has received survives a crash.
            if replayed {
                chunks_replayed += 1;
                state.counters.chunks_replayed.fetch_add(1, relaxed);
            } else {
                chunks_run += 1;
                state.counters.chunks_run.fetch_add(1, relaxed);
                ckpt.append_chunk(&entry).map_err(|e| {
                    let message = format!("checkpoint append failed: {e}");
                    let _ = send(writer, &error_frame(line_no, &message));
                    SubmitError::Transport(io::Error::other(message))
                })?;
            }
            cells_done += entry.hi - entry.lo;
            failed_total += entry.failed;
            frames.clear();
            for (offset, row) in entry.rows.iter().enumerate() {
                frames.push_str(&record_frame(entry.lo + offset, row));
                frames.push('\n');
            }
            frames.push_str(&progress_frame(k, n_chunks, cells_done, cells, replayed));
            frames.push('\n');
            writer.write_all(frames.as_bytes())?;
            writer.flush()?;
            state
                .counters
                .records_streamed
                .fetch_add(entry.rows.len() as u64, relaxed);
            Ok(())
        },
    );

    match outcome {
        Ok(()) => {
            state.counters.campaigns_completed.fetch_add(1, relaxed);
            // Free the admission slot before announcing completion, so
            // a client that retries the moment it sees `done` is never
            // spuriously rejected.
            drop(guard);
            let mut done = ObjectBuilder::frame("done");
            done.push_str("id", &id)
                .push_u64("cells", cells as u64)
                .push_u64("failed", failed_total as u64)
                .push_u64("chunks_run", chunks_run as u64)
                .push_u64("chunks_replayed", chunks_replayed as u64);
            send(writer, &done.finish())?;
            Ok(())
        }
        Err(e) => {
            state.counters.campaigns_failed.fetch_add(1, relaxed);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::Freq;
    use acs_runtime::PolicySpec;
    use acs_sim::{DispatchContext, Policy};

    /// A policy that panics at its first dispatch.
    struct Panics;

    impl Policy for Panics {
        fn name(&self) -> &str {
            "panics"
        }
        fn on_dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Freq {
            panic!("dispatch exploded");
        }
    }

    #[test]
    fn a_panicking_chunk_is_an_error_naming_the_chunk_and_the_panic() {
        let scenario = Scenario::from_text(
            "acsched-scenario v1\n\
             taskset solo\n\
             task ctrl period=10 wcec=300 acec=120 bcec=30\n\
             end\n\
             processor linear50 linear kappa=50 vmin=0.3 vmax=4\n\
             schedules unscheduled\n\
             policy no-dvs\n\
             workload paper\n\
             seeds 1\n\
             hyper_periods 1\n",
        )
        .unwrap();
        let campaign = scenario
            .campaign_builder_with_cache(None)
            .unwrap()
            .policy(PolicySpec::custom(|| Box::new(Panics)))
            .build()
            .unwrap();
        let plans = campaign.plan();
        let cells = campaign.cell_count();
        let err = run_chunk(&campaign, &plans, 3, 0..cells).unwrap_err();
        assert!(
            err.starts_with(&format!("chunk 3 (0..{cells}): panicked: ")),
            "{err}"
        );
        assert!(err.contains("dispatch exploded"), "{err}");
    }
}
