//! The `acsched-trace v1` streaming text format.
//!
//! ```text
//! acsched-trace v1
//! tasks 2
//! # name period deadline wcec acec bcec c_eff
//! video 10 10 100 40 10 1
//! audio 20 20 200 80 20 1
//! # arrival_ms task_id cycles
//! 3.5 0 87
//! 11.25 1 190
//! 14 0 62
//! ```
//!
//! A trace is self-contained: a small *prologue* declares the task set
//! (one task per line, the exact 7-field grammar of the
//! `acsched-taskset v1` artifact, in priority order), and every
//! following non-comment line is one job release:
//! `arrival_ms task_id cycles`, with arrivals nondecreasing and
//! `task_id` a 0-based index into the prologue.
//!
//! [`TraceReader`] keeps **bounded memory**: the prologue is read
//! eagerly (it is O(tasks)), records stream through a single reusable
//! line buffer plus one pushed-back record of lookahead — a multi-GB
//! trace never loads fully. [`TraceWriter`] is the mirror image and
//! validates what it emits, so a written trace always reads back.
//!
//! See `docs/TRACE_FORMAT.md` for the full grammar and the streaming
//! memory contract.

use crate::error::TraceError;
use crate::source::{ArrivalJob, ArrivalSource};
use acs_model::{text, Task, TaskSet};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// First line of every trace file.
pub const TRACE_HEADER: &str = "acsched-trace v1";

/// One job release of a trace: absolute arrival time, task index, and
/// the job's execution demand in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Absolute arrival time, ms, nondecreasing across the trace.
    pub arrival_ms: f64,
    /// 0-based index into the trace's task prologue.
    pub task: usize,
    /// Execution cycles of this job (the engine clamps to the task's
    /// WCEC, counting the clamp).
    pub cycles: f64,
}

/// Reads the next non-blank, non-comment line into `buf`, returning
/// `Ok(None)` at end of input. `line` is advanced past everything
/// consumed, so errors always carry the right 1-based number.
fn next_payload_line<R: BufRead>(
    input: &mut R,
    buf: &mut String,
    line: &mut usize,
) -> Result<bool, TraceError> {
    loop {
        buf.clear();
        let n = input
            .read_line(buf)
            .map_err(|e| TraceError::at(*line + 1, format!("read failed: {e}")))?;
        if n == 0 {
            return Ok(false);
        }
        *line += 1;
        let t = buf.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        return Ok(true);
    }
}

/// Streaming reader for `acsched-trace v1` files.
///
/// The prologue task set is available immediately after construction
/// via [`TraceReader::set`]; records then stream one at a time through
/// [`TraceReader::next_record`] with one record of pushback.
#[derive(Debug)]
pub struct TraceReader<R = BufReader<File>> {
    input: R,
    set: TaskSet,
    buf: String,
    /// 1-based number of the last line read.
    line: usize,
    /// Arrival of the most recent record (monotonicity check).
    last_arrival: f64,
    pushed_back: Option<TraceRecord>,
    records_read: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file and reads its prologue.
    ///
    /// # Errors
    ///
    /// [`TraceError`] when the file cannot be opened or the prologue is
    /// malformed; the path is folded into the message.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let file = File::open(path)
            .map_err(|e| TraceError::msg(format!("cannot open `{}`: {e}", path.display())))?;
        TraceReader::new(BufReader::new(file)).map_err(|e| TraceError {
            line: e.line,
            message: format!("{} (in `{}`)", e.message, path.display()),
        })
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered reader and eagerly parses the header and task
    /// prologue, leaving the cursor at the first record.
    ///
    /// # Errors
    ///
    /// [`TraceError`] with the offending 1-based line number on any
    /// header or prologue problem.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut buf = String::new();
        let mut line = 0usize;

        if !next_payload_line(&mut input, &mut buf, &mut line)? {
            return Err(TraceError::msg("empty trace"));
        }
        let header = buf.trim();
        if header != TRACE_HEADER {
            return Err(TraceError::at(
                line,
                format!("unsupported header `{header}` (expected `{TRACE_HEADER}`)"),
            ));
        }

        if !next_payload_line(&mut input, &mut buf, &mut line)? {
            return Err(TraceError::at(line, "missing `tasks <count>` line"));
        }
        let count_line = buf.trim().to_string();
        let count: usize = count_line
            .strip_prefix("tasks ")
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| TraceError::at(line, format!("bad tasks line `{count_line}`")))?;

        // Each prologue line is parsed through the model's own task
        // grammar (as a one-task artifact), so field semantics and
        // validation are exactly those of `acsched-taskset v1` — with
        // per-line error anchoring on top.
        let mut tasks: Vec<Task> = Vec::with_capacity(count);
        let mut names: Vec<String> = Vec::with_capacity(count);
        for _ in 0..count {
            if !next_payload_line(&mut input, &mut buf, &mut line)? {
                return Err(TraceError::at(
                    line,
                    format!(
                        "prologue declares {count} tasks but ends after {}",
                        tasks.len()
                    ),
                ));
            }
            let task_line = buf.trim();
            let artifact = format!("acsched-taskset v1\ntasks 1\n{task_line}\n");
            let one = text::from_text(&artifact)
                .map_err(|e| TraceError::at(line, format!("bad task line: {e}")))?;
            let task = one.tasks()[0].clone();
            names.push(task.name().to_string());
            tasks.push(task);
        }
        let set = TaskSet::new(tasks)
            .map_err(|e| TraceError::at(line, format!("invalid task prologue: {e}")))?;
        // Task ids index the prologue; `TaskSet` orders tasks by
        // priority, so an out-of-order prologue would silently remap
        // every record's task id. Refuse instead.
        let sorted: Vec<&str> = set.tasks().iter().map(Task::name).collect();
        if sorted != names.iter().map(String::as_str).collect::<Vec<_>>() {
            return Err(TraceError::at(
                line,
                "prologue tasks must be listed in priority order \
                 (shortest period first); task ids would be remapped otherwise",
            ));
        }

        Ok(TraceReader {
            input,
            set,
            buf,
            line,
            last_arrival: f64::NEG_INFINITY,
            pushed_back: None,
            records_read: 0,
        })
    }

    /// The task set declared by the trace prologue.
    pub fn set(&self) -> &TaskSet {
        &self.set
    }

    /// Number of records returned so far (pushback rewinds it).
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Streams the next record, `Ok(None)` at end of trace.
    ///
    /// # Errors
    ///
    /// [`TraceError`] with the record's 1-based line number on a
    /// malformed field, an out-of-range task id, or a decreasing
    /// arrival time.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if let Some(rec) = self.pushed_back.take() {
            self.records_read += 1;
            return Ok(Some(rec));
        }
        if !next_payload_line(&mut self.input, &mut self.buf, &mut self.line)? {
            return Ok(None);
        }
        let line = self.line;
        let text = self.buf.trim();
        let mut fields = text.split_whitespace();
        let (Some(a), Some(t), Some(c), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(TraceError::at(
                line,
                format!("expected `arrival_ms task_id cycles`, got `{text}`"),
            ));
        };
        let arrival_ms: f64 = a
            .parse()
            .map_err(|_| TraceError::at(line, format!("bad arrival `{a}`")))?;
        if !arrival_ms.is_finite() || arrival_ms < 0.0 {
            return Err(TraceError::at(
                line,
                format!("arrival must be finite and >= 0, got `{a}`"),
            ));
        }
        if arrival_ms < self.last_arrival {
            return Err(TraceError::at(
                line,
                format!(
                    "arrivals must be nondecreasing: {a} after {}",
                    self.last_arrival
                ),
            ));
        }
        let task: usize = t
            .parse()
            .map_err(|_| TraceError::at(line, format!("bad task id `{t}`")))?;
        if task >= self.set.len() {
            return Err(TraceError::at(
                line,
                format!(
                    "task id {task} out of range (trace declares {} tasks)",
                    self.set.len()
                ),
            ));
        }
        let cycles: f64 = c
            .parse()
            .map_err(|_| TraceError::at(line, format!("bad cycles `{c}`")))?;
        if !cycles.is_finite() || cycles < 0.0 {
            return Err(TraceError::at(
                line,
                format!("cycles must be finite and >= 0, got `{c}`"),
            ));
        }
        self.last_arrival = arrival_ms;
        self.records_read += 1;
        Ok(Some(TraceRecord {
            arrival_ms,
            task,
            cycles,
        }))
    }

    /// Returns a record to the reader; the next [`next_record`] call
    /// yields it again. At most one record can be held back.
    ///
    /// [`next_record`]: TraceReader::next_record
    pub fn push_back(&mut self, rec: TraceRecord) {
        debug_assert!(self.pushed_back.is_none(), "single-slot pushback");
        self.records_read -= 1;
        self.pushed_back = Some(rec);
    }
}

/// Streaming writer for `acsched-trace v1` files: emits the header and
/// prologue up front, then validates and appends one record per call.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    task_count: usize,
    last_arrival: f64,
    records_written: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file and writes its prologue.
    ///
    /// # Errors
    ///
    /// [`TraceError`] when the file cannot be created or the set is not
    /// representable in the text format.
    pub fn create(path: impl AsRef<Path>, set: &TaskSet) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| TraceError::msg(format!("cannot create `{}`: {e}", path.display())))?;
        TraceWriter::new(BufWriter::new(file), set)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer and emits the header and task prologue.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on I/O failure or a set whose task names cannot
    /// survive the line-oriented format.
    pub fn new(mut out: W, set: &TaskSet) -> Result<Self, TraceError> {
        let artifact = text::to_text(set)
            .map_err(|e| TraceError::msg(format!("set not representable: {e}")))?;
        // Reuse the taskset artifact body (count + comment + task
        // lines) verbatim under the trace header.
        let body = artifact
            .strip_prefix("acsched-taskset v1\n")
            .expect("taskset artifacts start with their header");
        write!(out, "{TRACE_HEADER}\n{body}# arrival_ms task_id cycles\n")
            .map_err(|e| TraceError::msg(format!("write failed: {e}")))?;
        Ok(TraceWriter {
            out,
            task_count: set.len(),
            last_arrival: 0.0,
            records_written: 0,
        })
    }

    /// Appends one record, enforcing the same invariants the reader
    /// checks (finite nonnegative fields, nondecreasing arrivals,
    /// in-range task id).
    ///
    /// # Errors
    ///
    /// [`TraceError`] on an invalid record or I/O failure.
    pub fn write(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        if !rec.arrival_ms.is_finite() || rec.arrival_ms < self.last_arrival {
            return Err(TraceError::msg(format!(
                "arrival {} not finite-nondecreasing (last {})",
                rec.arrival_ms, self.last_arrival
            )));
        }
        if rec.task >= self.task_count {
            return Err(TraceError::msg(format!(
                "task id {} out of range ({} tasks)",
                rec.task, self.task_count
            )));
        }
        if !rec.cycles.is_finite() || rec.cycles < 0.0 {
            return Err(TraceError::msg(format!("bad cycles {}", rec.cycles)));
        }
        writeln!(self.out, "{} {} {}", rec.arrival_ms, rec.task, rec.cycles)
            .map_err(|e| TraceError::msg(format!("write failed: {e}")))?;
        self.last_arrival = rec.arrival_ms;
        self.records_written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on flush failure.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out
            .flush()
            .map_err(|e| TraceError::msg(format!("flush failed: {e}")))?;
        Ok(self.out)
    }
}

/// Adapts a [`TraceReader`] into an [`ArrivalSource`]: records are
/// sliced into hyper-period windows of the prologue set, carrying their
/// cycles with them. The source [`exhausted`]s when the trace ends.
///
/// [`exhausted`]: ArrivalSource::exhausted
#[derive(Debug)]
pub struct TraceSource<R = BufReader<File>> {
    reader: TraceReader<R>,
    h_ms: f64,
    deadlines_ms: Vec<f64>,
    next_window: u64,
    done: bool,
    emitted: u64,
}

impl TraceSource<BufReader<File>> {
    /// Opens a trace file as an arrival source.
    ///
    /// # Errors
    ///
    /// [`TraceError`] from [`TraceReader::open`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Ok(TraceSource::new(TraceReader::open(path)?))
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Wraps an already-opened reader.
    pub fn new(reader: TraceReader<R>) -> Self {
        let h_ms = reader.set().hyper_period().get() as f64;
        let deadlines_ms = reader
            .set()
            .tasks()
            .iter()
            .map(|t| t.deadline().get() as f64)
            .collect();
        TraceSource {
            reader,
            h_ms,
            deadlines_ms,
            next_window: 0,
            done: false,
            emitted: 0,
        }
    }

    /// The task set declared by the trace prologue.
    pub fn set(&self) -> &TaskSet {
        self.reader.set()
    }
}

impl<R: BufRead + Send> ArrivalSource for TraceSource<R> {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn fill_window(&mut self, window: u64, out: &mut Vec<ArrivalJob>) -> Result<(), TraceError> {
        if window != self.next_window {
            return Err(TraceError::msg(format!(
                "arrival windows must be filled in order: expected {}, got {window}",
                self.next_window
            )));
        }
        self.next_window += 1;
        if self.done {
            return Ok(());
        }
        let start = window as f64 * self.h_ms;
        let end = (window + 1) as f64 * self.h_ms;
        loop {
            let Some(rec) = self.reader.next_record()? else {
                self.done = true;
                return Ok(());
            };
            if rec.arrival_ms >= end {
                // One record of lookahead: it belongs to a later
                // window, hand it back.
                self.reader.push_back(rec);
                return Ok(());
            }
            let release = rec.arrival_ms - start;
            out.push(ArrivalJob {
                task: rec.task,
                release_ms: release,
                deadline_ms: release + self.deadlines_ms[rec.task],
                draw_index: self.emitted,
                cycles: Some(rec.cycles),
            });
            self.emitted += 1;
        }
    }

    fn exhausted(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Cycles, Ticks};
    use std::io::Cursor;

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

    fn trace_text(records: &[(f64, usize, f64)]) -> String {
        let mut w = TraceWriter::new(Vec::new(), &set()).unwrap();
        for &(arrival_ms, task, cycles) in records {
            w.write(&TraceRecord {
                arrival_ms,
                task,
                cycles,
            })
            .unwrap();
        }
        String::from_utf8(w.finish().unwrap()).unwrap()
    }

    #[test]
    fn written_traces_read_back_exactly() {
        let records = [
            (0.5, 0, 80.0),
            (7.0, 1, 150.0),
            (7.0, 0, 12.5),
            (25.0, 1, 199.0),
        ];
        let text = trace_text(&records);
        assert!(text.starts_with("acsched-trace v1\ntasks 2\n"));
        let mut r = TraceReader::new(Cursor::new(text)).unwrap();
        assert_eq!(r.set(), &set());
        let mut back = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            back.push((rec.arrival_ms, rec.task, rec.cycles));
        }
        assert_eq!(back.as_slice(), records.as_slice());
        assert_eq!(r.records_read(), 4);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# leading comment\nacsched-trace v1\n\ntasks 1\n\
                    # name period deadline wcec acec bcec c_eff\n\
                    a 10 10 100 100 100 1\n\n# records\n1.5 0 50\n\n# trailing\n";
        let mut r = TraceReader::new(Cursor::new(text)).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(
            rec,
            TraceRecord {
                arrival_ms: 1.5,
                task: 0,
                cycles: 50.0
            }
        );
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Bad header, line 1.
        let e = TraceReader::new(Cursor::new("acsched-trace v9\n")).unwrap_err();
        assert_eq!(e.line, Some(1));
        // Bad record appended after the 6-line prologue block
        // (header, tasks, field comment, 2 task lines, record comment).
        let good = trace_text(&[]);
        let e = TraceReader::new(Cursor::new(format!("{good}nope 0 1\n")))
            .unwrap()
            .next_record()
            .unwrap_err();
        assert_eq!(e.line, Some(7), "{e}");
        assert!(e.message.contains("bad arrival"), "{e}");
        // Decreasing arrivals.
        let mut r = TraceReader::new(Cursor::new(format!("{good}5 0 1\n4 0 1\n"))).unwrap();
        r.next_record().unwrap();
        let e = r.next_record().unwrap_err();
        assert!(e.message.contains("nondecreasing"), "{e}");
        // Task id out of range.
        let e = TraceReader::new(Cursor::new(format!("{good}5 9 1\n")))
            .unwrap()
            .next_record()
            .unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        // Prologue not in priority order.
        let swapped = "acsched-trace v1\ntasks 2\n\
                       b 20 20 200 200 200 1\na 10 10 100 100 100 1\n";
        let e = TraceReader::new(Cursor::new(swapped)).unwrap_err();
        assert!(e.message.contains("priority order"), "{e}");
    }

    #[test]
    fn writer_rejects_what_the_reader_would() {
        let mut w = TraceWriter::new(Vec::new(), &set()).unwrap();
        w.write(&TraceRecord {
            arrival_ms: 5.0,
            task: 0,
            cycles: 1.0,
        })
        .unwrap();
        assert!(w
            .write(&TraceRecord {
                arrival_ms: 4.0,
                task: 0,
                cycles: 1.0
            })
            .is_err());
        assert!(w
            .write(&TraceRecord {
                arrival_ms: 6.0,
                task: 7,
                cycles: 1.0
            })
            .is_err());
        assert!(w
            .write(&TraceRecord {
                arrival_ms: 6.0,
                task: 0,
                cycles: f64::NAN
            })
            .is_err());
    }

    #[test]
    fn trace_source_slices_records_into_windows() {
        // H = 20ms. Records straddle three windows; 40.0 lands exactly
        // on a boundary and belongs to window 2.
        let text = trace_text(&[
            (0.5, 0, 80.0),
            (19.0, 1, 150.0),
            (21.0, 0, 30.0),
            (40.0, 0, 10.0),
        ]);
        let mut src = TraceSource::new(TraceReader::new(Cursor::new(text)).unwrap());
        assert_eq!(src.name(), "trace");

        let mut out = Vec::new();
        src.fill_window(0, &mut out).unwrap();
        assert_eq!(
            out.iter()
                .map(|j| (j.task, j.release_ms))
                .collect::<Vec<_>>(),
            vec![(0, 0.5), (1, 19.0)]
        );
        assert_eq!(out[0].cycles, Some(80.0));
        assert_eq!(out[1].deadline_ms, 19.0 + 20.0);
        assert!(!src.exhausted());

        out.clear();
        src.fill_window(1, &mut out).unwrap();
        assert_eq!(
            out.iter()
                .map(|j| (j.task, j.release_ms))
                .collect::<Vec<_>>(),
            vec![(0, 1.0)]
        );

        out.clear();
        src.fill_window(2, &mut out).unwrap();
        assert_eq!(
            out.iter()
                .map(|j| (j.task, j.release_ms))
                .collect::<Vec<_>>(),
            vec![(0, 0.0)]
        );
        out.clear();
        src.fill_window(3, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(src.exhausted());

        // Windows must be sequential.
        assert!(src.fill_window(9, &mut out).is_err());
    }
}
