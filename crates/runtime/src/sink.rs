//! Streaming campaign results: the [`ResultSink`] trait and the
//! built-in sinks.
//!
//! [`Campaign::run_with`](crate::Campaign::run_with) pushes one
//! [`CellRecord`] per grid cell into a sink **as the grid executes** —
//! in deterministic grid order, independent of the worker-thread count —
//! instead of materializing the whole report in memory first. The
//! built-ins cover the common shapes:
//!
//! * [`AggregateSink`] — collects records into the classic in-memory
//!   [`CampaignReport`]; `Campaign::run` is exactly `run_with` over this
//!   sink, so streaming and materialized results are identical by
//!   construction.
//! * [`CsvSink`] — one header plus one comma-separated row per cell,
//!   written to any `io::Write` (hand-rolled; the build environment
//!   vendors no serde).
//! * [`JsonlSink`] — one JSON object per line, same data.
//! * [`Tee`] — fans every callback out to several sinks, e.g. aggregate
//!   in memory *and* persist CSV in one pass.

use crate::report::{CampaignReport, CellReport, CellStats};
use std::fmt::Write as _;
use std::io;
use std::io::Write;

/// Static facts about a campaign, handed to sinks before the first
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignMeta {
    /// Number of grid cells (records the sink will receive).
    pub cells: usize,
    /// Number of simulator runs backing those cells.
    pub runs: usize,
    /// Seeds per cell.
    pub seeds: usize,
}

/// One grid cell's result, emitted while the campaign runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Position in grid order, `0 ≤ index < meta.cells`. Records always
    /// arrive in increasing `index` order.
    pub index: usize,
    /// The cell's coordinates and aggregated outcome.
    pub cell: CellReport,
}

/// A consumer of streaming campaign results.
///
/// `Campaign::run_with` calls `on_begin` once, then `on_record` once per
/// grid cell **in grid order** (cell `i` is delivered as soon as every
/// seed of every cell `≤ i` has finished simulating — later cells may
/// still be running), then `on_end` once. Any error aborts the campaign
/// and is returned from `run_with`.
pub trait ResultSink {
    /// Called once before the first record.
    ///
    /// # Errors
    ///
    /// Propagated out of `Campaign::run_with`, aborting the campaign.
    fn on_begin(&mut self, _meta: &CampaignMeta) -> io::Result<()> {
        Ok(())
    }

    /// Called once per grid cell, in grid order.
    ///
    /// # Errors
    ///
    /// Propagated out of `Campaign::run_with`, aborting the campaign.
    fn on_record(&mut self, record: &CellRecord) -> io::Result<()>;

    /// Called once after the last record.
    ///
    /// # Errors
    ///
    /// Propagated out of `Campaign::run_with`.
    fn on_end(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects records into a [`CampaignReport`] — the sink behind
/// [`Campaign::run`](crate::Campaign::run).
#[derive(Debug, Default)]
pub struct AggregateSink {
    cells: Vec<CellReport>,
}

impl AggregateSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        AggregateSink::default()
    }

    /// The report accumulated so far.
    pub fn into_report(self) -> CampaignReport {
        CampaignReport::new(self.cells)
    }
}

impl ResultSink for AggregateSink {
    fn on_begin(&mut self, meta: &CampaignMeta) -> io::Result<()> {
        self.cells.reserve(meta.cells);
        Ok(())
    }

    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        self.cells.push(record.cell.clone());
        Ok(())
    }
}

/// One result value.
#[derive(Clone, Copy)]
enum Value<'a> {
    Str(&'a str),
    Int(usize),
    /// Rendered in Rust's shortest round-trip `f64` formatting.
    Num(f64),
    /// `;`-joined in CSV, an array in JSON.
    Nums(&'a [f64]),
}

impl Value<'_> {
    /// Appends the value as a JSON value, or else as a CSV field: quoted
    /// RFC-4180 style when it contains a comma, quote or newline
    /// (embedded quotes doubled).
    fn write(self, out: &mut String, json: bool) {
        match self {
            Value::Str(s) if json => push_json_str(out, s),
            Value::Str(s) if s.contains([',', '"', '\n', '\r']) => {
                push(out, format_args!("\"{}\"", s.replace('"', "\"\"")));
            }
            Value::Str(s) => out.push_str(s),
            Value::Int(n) => push(out, format_args!("{n}")),
            Value::Num(x) => push(out, format_args!("{x}")),
            Value::Nums(xs) => {
                let (open, sep, close) = if json { ("[", ",", "]") } else { ("", ";", "") };
                out.push_str(open);
                for (i, x) in xs.iter().enumerate() {
                    push(out, format_args!("{}{x}", if i > 0 { sep } else { "" }));
                }
                out.push_str(close);
            }
        }
    }
}

fn push(out: &mut String, args: std::fmt::Arguments) {
    out.write_fmt(args)
        .expect("formatting into a String cannot fail");
}

/// Appends `s` as a JSON string literal, quotes included. `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` get their short escapes
/// and every other control character becomes `\uXXXX`; everything else
/// passes through, so multi-line text survives on one line.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where a result column's value comes from.
enum Source {
    /// A cell coordinate, filled on every row.
    Coord(for<'a> fn(&'a CellReport) -> Value<'a>),
    /// `ok` or `failed`.
    Status,
    /// The failure message, empty on ok rows.
    Error,
    /// A statistic, empty on failed rows.
    Stat(for<'a> fn(&'a CellStats) -> Value<'a>),
}

/// Declares every result column once, in CSV order: [`CSV_HEADER`],
/// [`csv_row`] (ok and failed rows) and [`JsonlSink`] records all come
/// from this list.
macro_rules! columns {
    ($first:ident: $first_source:expr, $($name:ident: $source:expr,)*) => {
        /// The column header emitted by [`CsvSink`] (no trailing newline).
        ///
        /// Columns are only ever appended, so positional consumers of
        /// older CSVs keep working. The multicore/leakage columns
        /// (`cores` through `per_core_energy`) follow the original
        /// layout; `per_core_energy` is a `;`-joined list of per-core
        /// mean energies, in core order. The scheduling-class columns
        /// (`class`, `preemptions`) come next; `class` is `rm` or `edf`.
        /// Then the arrival-stream columns (`arrivals`,
        /// `misses_aperiodic`): `arrivals` is the cell's arrival label
        /// (`periodic`/`sporadic`/`poisson`/`mmpp:light|bursty|heavy`/
        /// `trace`), `misses_aperiodic` the subset of `deadline_misses`
        /// charged to aperiodic jobs. The placement columns (`placement`,
        /// `migrations`) come last: `placement` is
        /// `partitioned`/`global` (`-` on single-core cells),
        /// `migrations` the between-core job migrations (zero everywhere
        /// except global cells).
        pub const CSV_HEADER: &str =
            concat!(stringify!($first), $(",", stringify!($name),)*);

        const COLUMNS: &[(&str, Source)] = {
            use Source::{Coord, Error, Stat, Status};
            use Value::{Int, Num, Nums, Str};
            &[(stringify!($first), $first_source), $((stringify!($name), $source),)*]
        };
    };
}

columns! {
    task_set: Coord(|c| Str(&c.task_set)),
    processor: Coord(|c| Str(&c.processor)),
    schedule: Coord(|c| Str(c.schedule.label())),
    policy: Coord(|c| Str(&c.policy)),
    workload: Coord(|c| Str(&c.workload)),
    status: Status,
    error: Error,
    runs: Stat(|s| Int(s.runs)),
    mean_energy: Stat(|s| Num(s.mean_energy.as_units())),
    std_energy: Stat(|s| Num(s.std_energy)),
    p95_energy: Stat(|s| Num(s.p95_energy.as_units())),
    deadline_misses: Stat(|s| Int(s.deadline_misses)),
    jobs_completed: Stat(|s| Int(s.jobs_completed)),
    saturated_dispatches: Stat(|s| Int(s.saturated_dispatches)),
    voltage_switches: Stat(|s| Int(s.voltage_switches)),
    clamped_draws: Stat(|s| Int(s.clamped_draws)),
    worst_lateness_ms: Stat(|s| Num(s.worst_lateness_ms)),
    solver_lookups: Stat(|s| Int(s.solver_lookups)),
    solver_cache_hits: Stat(|s| Int(s.solver_cache_hits)),
    boundary_resolves: Stat(|s| Int(s.boundary_resolves)),
    resolves_adopted: Stat(|s| Int(s.resolves_adopted)),
    cores: Coord(|c| Int(c.cores)),
    partition: Coord(|c| Str(&c.partition)),
    dynamic_energy: Stat(|s| Num(s.mean_dynamic_energy.as_units())),
    static_energy: Stat(|s| Num(s.mean_static_energy.as_units())),
    idle_energy: Stat(|s| Num(s.mean_idle_energy.as_units())),
    per_core_energy: Stat(|s| Nums(&s.per_core_mean_energy)),
    class: Coord(|c| Str(c.class.label())),
    preemptions: Stat(|s| Int(s.preemptions)),
    arrivals: Coord(|c| Str(&c.arrivals)),
    misses_aperiodic: Stat(|s| Int(s.misses_aperiodic)),
    placement: Coord(|c| Str(&c.placement)),
    migrations: Stat(|s| Int(s.migrations)),
}

/// Renders one record as its [`CsvSink`] row (no trailing newline) —
/// the exact bytes the sink would write under [`CSV_HEADER`]. Exposed
/// so remote transports (the campaign server's `record` frames, its
/// checkpoint files) can carry rows that splice byte-identically into a
/// locally written CSV.
pub fn csv_row(record: &CellRecord) -> String {
    let c = &record.cell;
    let mut row = String::with_capacity(256);
    for (i, (_, source)) in COLUMNS.iter().enumerate() {
        if i > 0 {
            row.push(',');
        }
        let value = match (source, &c.outcome) {
            (Source::Coord(get), _) => get(c),
            (Source::Status, Ok(_)) => Value::Str("ok"),
            (Source::Status, Err(_)) => Value::Str("failed"),
            (Source::Error, Err(e)) => Value::Str(e),
            (Source::Stat(get), Ok(s)) => get(s),
            (Source::Error, Ok(_)) | (Source::Stat(_), Err(_)) => continue,
        };
        value.write(&mut row, false);
    }
    row
}

/// Streams one CSV row per cell to any writer.
///
/// Failed cells carry `status=failed` plus the error message and empty
/// statistic columns. Numbers use Rust's shortest round-trip `f64`
/// formatting. The writer is flushed at `on_end`.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer; the header is written by `on_begin`.
    pub fn new(writer: W) -> Self {
        CsvSink { writer }
    }

    /// Unwraps the writer (e.g. to recover an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> ResultSink for CsvSink<W> {
    fn on_begin(&mut self, _meta: &CampaignMeta) -> io::Result<()> {
        writeln!(self.writer, "{CSV_HEADER}")
    }

    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        writeln!(self.writer, "{}", csv_row(record))
    }

    fn on_end(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams one JSON object per line (JSON Lines) to any writer.
///
/// Each object carries `index`, then the coordinate columns, then
/// `"ok"`: successful cells add a `"stats"` object of the statistic
/// columns, failed cells an `"error"` string. Keys follow the
/// [`CSV_HEADER`] column order. The writer is flushed at `on_end`.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    /// One record's line, reused across records.
    line: String,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
        }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> ResultSink for JsonlSink<W> {
    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        let c = &record.cell;
        let line = &mut self.line;
        line.clear();
        push(line, format_args!("{{\"index\":{},", record.index));
        for (name, source) in COLUMNS {
            if let Source::Coord(get) = source {
                push_field(line, name, get(c));
            }
        }
        match &c.outcome {
            Ok(s) => {
                line.push_str("\"ok\":true,\"stats\":{");
                for (name, source) in COLUMNS {
                    if let Source::Stat(get) = source {
                        push_field(line, name, get(s));
                    }
                }
                line.pop(); // the last statistic's comma
                line.push('}');
            }
            Err(e) => {
                line.push_str("\"ok\":false,\"error\":");
                Value::Str(e).write(line, true);
            }
        }
        line.push_str("}\n");
        self.writer.write_all(line.as_bytes())
    }

    fn on_end(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Appends `"name":value,` to a JSON object.
fn push_field(line: &mut String, name: &str, value: Value) {
    line.push('"');
    line.push_str(name);
    line.push_str("\":");
    value.write(line, true);
    line.push(',');
}

/// Fans every callback out to several sinks, in order — e.g. aggregate
/// a [`CampaignReport`] *and* persist CSV in one streaming pass. The
/// first error aborts the fan-out (later sinks in the list are not
/// called for that event).
pub struct Tee<'a> {
    sinks: Vec<&'a mut dyn ResultSink>,
}

impl<'a> Tee<'a> {
    /// Builds a fan-out over the given sinks.
    pub fn new(sinks: Vec<&'a mut dyn ResultSink>) -> Self {
        Tee { sinks }
    }
}

impl std::fmt::Debug for Tee<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tee")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl ResultSink for Tee<'_> {
    fn on_begin(&mut self, meta: &CampaignMeta) -> io::Result<()> {
        for sink in &mut self.sinks {
            sink.on_begin(meta)?;
        }
        Ok(())
    }

    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        for sink in &mut self.sinks {
            sink.on_record(record)?;
        }
        Ok(())
    }

    fn on_end(&mut self) -> io::Result<()> {
        for sink in &mut self.sinks {
            sink.on_end()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ScheduleChoice;
    use acs_model::units::Energy;
    use acs_model::SchedulingClass;

    fn record(index: usize, ok: bool) -> CellRecord {
        CellRecord {
            index,
            cell: CellReport {
                task_set: "s,1".into(),
                processor: "p".into(),
                cores: 2,
                partition: "ffd".into(),
                placement: "partitioned".into(),
                class: SchedulingClass::Edf,
                schedule: ScheduleChoice::Wcs,
                policy: "greedy".into(),
                workload: "paper-normal".into(),
                arrivals: "mmpp:bursty".into(),
                outcome: if ok {
                    Ok(CellStats {
                        runs: 2,
                        mean_energy: Energy::from_units(12.5),
                        std_energy: 0.5,
                        p95_energy: Energy::from_units(13.0),
                        mean_dynamic_energy: Energy::from_units(10.0),
                        mean_static_energy: Energy::from_units(2.0),
                        mean_idle_energy: Energy::from_units(0.5),
                        per_core_mean_energy: vec![7.5, 5.0],
                        deadline_misses: 3,
                        misses_aperiodic: 2,
                        jobs_completed: 20,
                        saturated_dispatches: 1,
                        voltage_switches: 40,
                        preemptions: 6,
                        migrations: 4,
                        worst_lateness_ms: -0.25,
                        ..CellStats::default()
                    })
                } else {
                    Err("synthesis: \"boom\"".into())
                },
            },
        }
    }

    fn drive(sink: &mut dyn ResultSink) {
        let meta = CampaignMeta {
            cells: 2,
            runs: 4,
            seeds: 2,
        };
        sink.on_begin(&meta).unwrap();
        sink.on_record(&record(0, true)).unwrap();
        sink.on_record(&record(1, false)).unwrap();
        sink.on_end().unwrap();
    }

    #[test]
    fn csv_rows_and_quoting() {
        let mut sink = CsvSink::new(Vec::new());
        drive(&mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert!(
            lines[1].starts_with(
                "\"s,1\",p,WCS,greedy,paper-normal,ok,,2,12.5,0.5,13,3,20,1,40,0,-0.25,"
            ),
            "{}",
            lines[1]
        );
        assert!(
            lines[1].ends_with(",2,ffd,10,2,0.5,7.5;5,edf,6,mmpp:bursty,2,partitioned,4"),
            "multicore/leakage, class, arrival, then placement columns are appended: {}",
            lines[1]
        );
        assert!(
            lines[2].contains("failed,\"synthesis: \"\"boom\"\"\""),
            "{}",
            lines[2]
        );
        assert!(
            lines[2].ends_with(",2,ffd,,,,,edf,,mmpp:bursty,,partitioned,"),
            "failed rows still carry the cores, class, arrivals and placement coordinates: {}",
            lines[2]
        );
        // Every row has the header's column count.
        let cols = |line: &str| {
            let mut n = 1;
            let mut in_quotes = false;
            for ch in line.chars() {
                match ch {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => n += 1,
                    _ => {}
                }
            }
            n
        };
        assert_eq!(cols(lines[1]), cols(lines[0]));
        assert_eq!(cols(lines[2]), cols(lines[0]));
    }

    #[test]
    fn jsonl_shape_and_escaping() {
        let mut sink = JsonlSink::new(Vec::new());
        drive(&mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"task_set\":\"s,1\""));
        assert!(lines[0].contains("\"cores\":2"));
        assert!(lines[0].contains("\"partition\":\"ffd\""));
        assert!(lines[0].contains("\"class\":\"edf\""));
        assert!(lines[0].contains("\"preemptions\":6"));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[0].contains("\"mean_energy\":12.5"));
        assert!(lines[0].contains("\"static_energy\":2"));
        assert!(lines[0].contains("\"per_core_energy\":[7.5,5]"));
        assert!(lines[0].contains("\"arrivals\":\"mmpp:bursty\""));
        assert!(lines[0].contains("\"misses_aperiodic\":2"));
        assert!(lines[0].contains("\"placement\":\"partitioned\""));
        assert!(lines[0].contains("\"migrations\":4"));
        assert!(lines[1].contains("\"placement\":\"partitioned\""));
        assert!(lines[1].contains("\"arrivals\":\"mmpp:bursty\""));
        assert!(lines[1].contains("\"ok\":false"));
        assert!(lines[1].contains("\\\"boom\\\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn tee_fans_out_and_aggregate_collects() {
        let mut agg = AggregateSink::new();
        let mut csv = CsvSink::new(Vec::new());
        {
            let mut tee = Tee::new(vec![&mut agg, &mut csv]);
            drive(&mut tee);
        }
        let report = agg.into_report();
        assert_eq!(report.cells().len(), 2);
        assert_eq!(report.failures().count(), 1);
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn json_escape_control_chars() {
        let escaped = |s: &str| {
            let mut out = String::new();
            Value::Str(s).write(&mut out, true);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
    }
}
