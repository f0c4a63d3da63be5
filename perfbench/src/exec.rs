//! Drives the program through its public API: in-process campaigns
//! (untimed-layer and traced variants) and a frame-timing client for an
//! in-process `acs-serve` server on loopback.
//!
//! Timers sit only here, around calls into each layer's public
//! functions; nothing is measured inside the program.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acs_runtime::{CampaignMeta, CellRecord, CellReport, CsvSink, ResultSink};
use acs_scenario::Scenario;
use acs_serve::json::Object;
use acs_serve::protocol::SubmitRequest;
use acs_serve::protocol::{hello_frame, parse_server_frame, stats_frame, submit_frame};
use acs_serve::{handle_connection, ServerConfig, ServerState};

/// A `CsvSink` that also keeps each record's report, notes when the
/// first record arrived and, when `timed`, how long the CSV sink spent
/// in `on_record`.
pub struct RecordingSink {
    csv: CsvSink<Vec<u8>>,
    pub cells: Vec<CellReport>,
    pub first: Option<Instant>,
    timed: bool,
    pub sink_time: Duration,
}

impl RecordingSink {
    pub fn new(timed: bool) -> Self {
        RecordingSink {
            csv: CsvSink::new(Vec::new()),
            cells: Vec::new(),
            first: None,
            timed,
            sink_time: Duration::ZERO,
        }
    }

    pub fn into_csv(self) -> (String, Vec<CellReport>) {
        let text = String::from_utf8(self.csv.into_inner()).expect("CsvSink writes UTF-8");
        (text, self.cells)
    }
}

impl ResultSink for RecordingSink {
    fn on_begin(&mut self, meta: &CampaignMeta) -> io::Result<()> {
        self.csv.on_begin(meta)
    }

    fn on_record(&mut self, record: &CellRecord) -> io::Result<()> {
        self.first.get_or_insert_with(Instant::now);
        if self.timed {
            let t = Instant::now();
            self.csv.on_record(record)?;
            self.sink_time += t.elapsed();
        } else {
            self.csv.on_record(record)?;
        }
        self.cells.push(record.cell.clone());
        Ok(())
    }

    fn on_end(&mut self) -> io::Result<()> {
        self.csv.on_end()
    }
}

/// One in-process campaign, timed end to end.
pub struct LocalRun {
    /// `from_text` + `to_campaign`.
    pub setup: Duration,
    /// Plan start to the last record.
    pub plan_run: Duration,
    /// Plan start to the first record.
    pub first_record: Duration,
    pub csv: String,
    pub cells: Vec<CellReport>,
}

fn meta_of(campaign: &acs_runtime::Campaign) -> CampaignMeta {
    CampaignMeta {
        cells: campaign.cell_count(),
        runs: campaign.run_count(),
        seeds: campaign.run_count() / campaign.cell_count().max(1),
    }
}

/// `Scenario::from_text` → `to_campaign`, returning the campaign.
pub fn build(text: &str) -> Result<acs_runtime::Campaign, String> {
    Scenario::from_text(text)
        .and_then(|s| s.to_campaign())
        .map_err(|e| format!("scenario: {e}"))
}

/// Runs one scenario in-process the way a library user would.
pub fn run_local(text: &str, threads: usize) -> Result<LocalRun, String> {
    let t0 = Instant::now();
    let campaign = build(text)?;
    let t1 = Instant::now();
    let plans = campaign.plan();
    let mut sink = RecordingSink::new(false);
    sink.on_begin(&meta_of(&campaign))
        .map_err(|e| e.to_string())?;
    campaign
        .run_range_with(&plans, 0..campaign.cell_count(), threads, &mut sink)
        .map_err(|e| e.to_string())?;
    sink.on_end().map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let first = sink.first.unwrap_or(t2);
    let (csv, cells) = sink.into_csv();
    Ok(LocalRun {
        setup: t1 - t0,
        plan_run: t2 - t1,
        first_record: first - t1,
        csv,
        cells,
    })
}

/// One in-process campaign decomposed into timed layer calls: parse,
/// materialize, plan, then `run_range_with(i..i+1)` per cell.
pub struct TracedRun {
    pub parse: Duration,
    pub materialize: Duration,
    pub plan: Duration,
    pub plan_keys: usize,
    /// Wall time of each cell's `run_range_with`, in grid order.
    pub cell_times: Vec<Duration>,
    pub sink_time: Duration,
    pub csv: String,
    pub cells: Vec<CellReport>,
}

pub fn run_traced(text: &str, threads: usize) -> Result<TracedRun, String> {
    let t0 = Instant::now();
    let scenario = Scenario::from_text(text).map_err(|e| format!("scenario: {e}"))?;
    let t1 = Instant::now();
    let campaign = scenario
        .to_campaign()
        .map_err(|e| format!("scenario: {e}"))?;
    let t2 = Instant::now();
    let plans = campaign.plan();
    let t3 = Instant::now();
    let mut sink = RecordingSink::new(true);
    sink.on_begin(&meta_of(&campaign))
        .map_err(|e| e.to_string())?;
    let mut cell_times = Vec::with_capacity(campaign.cell_count());
    for i in 0..campaign.cell_count() {
        let t = Instant::now();
        campaign
            .run_range_with(&plans, i..i + 1, threads, &mut sink)
            .map_err(|e| e.to_string())?;
        cell_times.push(t.elapsed());
    }
    sink.on_end().map_err(|e| e.to_string())?;
    let sink_time = sink.sink_time;
    let (csv, cells) = sink.into_csv();
    Ok(TracedRun {
        parse: t1 - t0,
        materialize: t2 - t1,
        plan: t3 - t2,
        plan_keys: plans.synthesized(),
        cell_times,
        sink_time,
        csv,
        cells,
    })
}

/// An in-process server that serves exactly one connection and then
/// ends, so the benchmark can join it.
pub struct Server {
    pub addr: std::net::SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    pub fn start(ckpt_dir: &std::path::Path, threads: usize) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(ServerConfig {
            addr: addr.to_string(),
            ckpt_dir: ckpt_dir.to_path_buf(),
            threads,
            ..ServerConfig::default()
        }));
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept()?;
            handle_connection(stream, state)
        });
        Ok(Server {
            addr,
            thread: Some(thread),
        })
    }

    /// Waits for the server thread; call after the client hung up. A
    /// server that never got its connection is handed an empty one.
    pub fn join(mut self) -> Result<(), String> {
        if self.thread.as_ref().is_some_and(|t| !t.is_finished()) {
            let _ = TcpStream::connect(self.addr);
        }
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server connection ended with {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

/// Frame timings of one submission, measured from sending `submit`.
pub struct Submission {
    pub latency: Duration,
    pub to_accepted: Duration,
    pub to_first_record: Duration,
    pub to_last_record: Duration,
    pub records: usize,
    pub failed: usize,
    pub csv: String,
}

/// One loopback connection speaking the campaign protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects and completes the `hello` handshake.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
        };
        client.send(&hello_frame())?;
        let (kind, _) = client.read()?;
        if kind != "hello" {
            return Err(format!("expected hello, got `{kind}`"));
        }
        Ok(client)
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn read(&mut self) -> Result<(String, Object), String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let frame = parse_server_frame(line.trim_end_matches('\n'))?;
        Ok((frame.frame_type, frame.body))
    }

    /// Submits a scenario and reads frames until `done`.
    pub fn submit(&mut self, scenario: &str, chunk: usize) -> Result<Submission, String> {
        let t0 = Instant::now();
        self.send(&submit_frame(&SubmitRequest {
            scenario: scenario.to_string(),
            id: None,
            resume: false,
            threads: None,
            chunk: Some(chunk),
        }))?;
        let mut csv = format!("{}\n", acs_runtime::sink::CSV_HEADER);
        let (mut accepted, mut first, mut last) = (None, None, None);
        let mut records = 0;
        loop {
            let (kind, body) = self.read()?;
            let now = t0.elapsed();
            match kind.as_str() {
                "accepted" => accepted = Some(now),
                "record" => {
                    if body.u64_field("index")? as usize != records {
                        return Err("record frames out of order".into());
                    }
                    first.get_or_insert(now);
                    last = Some(now);
                    records += 1;
                    csv.push_str(body.str_field("csv")?);
                    csv.push('\n');
                }
                "progress" => {}
                "done" => {
                    let cells = body.u64_field("cells")? as usize;
                    if cells != records {
                        return Err(format!("done after {records} of {cells} records"));
                    }
                    let to_accepted = accepted.ok_or("no accepted frame")?;
                    return Ok(Submission {
                        latency: now,
                        to_accepted,
                        to_first_record: first.unwrap_or(now),
                        to_last_record: last.unwrap_or(now),
                        records,
                        failed: body.u64_field("failed")? as usize,
                        csv,
                    });
                }
                "error" => return Err(format!("server: {}", body.str_field("message")?)),
                other => return Err(format!("unexpected `{other}` frame")),
            }
        }
    }

    /// The server's `stats` frame.
    pub fn stats(&mut self) -> Result<Object, String> {
        self.send(&stats_frame())?;
        let (kind, body) = self.read()?;
        if kind != "stats" {
            return Err(format!("expected stats, got `{kind}`"));
        }
        Ok(body)
    }
}

/// A number field of a server frame.
pub fn num(body: &Object, key: &str) -> f64 {
    match body.get(key) {
        Some(acs_serve::json::Value::Num(n)) => *n,
        _ => 0.0,
    }
}
