//! End-to-end tests for the campaign server (`acsched serve` /
//! `acsched submit`): protocol robustness against malformed frames,
//! checkpoint corruption tolerance, admission control, and the
//! headline crash-resume guarantee — SIGKILL the server mid-campaign,
//! restart, resume, and get output byte-identical to an uninterrupted
//! `acsched run` at any thread count.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use acs_runtime::CsvSink;
use acs_scenario::Scenario;
use acs_serve::{serve_on, ServerConfig, ServerState, SubmitOptions};

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acsched-server-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start an in-process server on a free port; returns its address.
fn spawn_in_process(cfg: ServerConfig) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let state = Arc::new(ServerState::new(cfg));
    std::thread::spawn(move || {
        let _ = serve_on(listener, state);
    });
    addr
}

/// Run the streamed campaign locally through the library `CsvSink` —
/// the reference bytes a served submission must reproduce.
fn local_csv(scenario_path: &Path, threads: usize) -> String {
    let scenario = Scenario::load(scenario_path.to_str().unwrap()).unwrap();
    let campaign = scenario
        .campaign_builder()
        .unwrap()
        .threads(threads)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    campaign.run_with(&mut CsvSink::new(&mut buf)).unwrap();
    String::from_utf8(buf).unwrap()
}

struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Wire {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn hello(&mut self) {
        self.send(r#"{"type":"hello","proto":1}"#);
        let reply = self.recv();
        assert!(
            reply.contains("\"type\":\"hello\""),
            "bad hello reply: {reply}"
        );
    }
}

#[test]
fn malformed_frames_get_line_numbered_errors_without_killing_the_connection() {
    let addr = spawn_in_process(ServerConfig {
        ckpt_dir: temp_dir("malformed"),
        ..ServerConfig::default()
    });
    let mut wire = Wire::connect(&addr);

    // Line 1: not JSON at all.
    wire.send("this is not a frame");
    let e1 = wire.recv();
    assert!(
        e1.contains("\"type\":\"error\"") && e1.contains("\"line\":1"),
        "{e1}"
    );

    // Line 2: valid JSON, unknown frame type.
    wire.send(r#"{"type":"launch"}"#);
    let e2 = wire.recv();
    assert!(
        e2.contains("\"line\":2") && e2.contains("unknown frame type"),
        "{e2}"
    );

    // Line 3: truncated JSON (simulates a cut-off write).
    wire.send(r#"{"type":"submit","scenario":"acsched-scen"#);
    let e3 = wire.recv();
    assert!(e3.contains("\"line\":3"), "{e3}");

    // Line 4: well-formed submit before hello.
    wire.send(r#"{"type":"submit","scenario":"x"}"#);
    let e4 = wire.recv();
    assert!(
        e4.contains("\"line\":4") && e4.contains("first frame must be `hello`"),
        "{e4}"
    );

    // Line 5: wrong protocol version.
    wire.send(r#"{"type":"hello","proto":99}"#);
    let e5 = wire.recv();
    assert!(e5.contains("unsupported protocol version 99"), "{e5}");

    // Line 6-7: the same connection still works end to end.
    wire.hello();
    let scenario = std::fs::read_to_string(manifest_path("scenarios/smoke.txt")).unwrap();
    wire.send(&format!(
        r#"{{"type":"submit","scenario":"{}"}}"#,
        scenario
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    ));
    let mut saw_done = false;
    for _ in 0..200 {
        let frame = wire.recv();
        assert!(
            !frame.contains("\"type\":\"error\""),
            "valid submit after garbage must run: {frame}"
        );
        if frame.contains("\"type\":\"done\"") {
            saw_done = true;
            break;
        }
    }
    assert!(
        saw_done,
        "campaign should complete on the survived connection"
    );

    // A submit with a scenario that fails validation reports the
    // parser's message (which carries the scenario's own line info)
    // and still leaves the connection usable.
    wire.send(r#"{"type":"submit","scenario":"acsched-scenario v1\nbogus directive\n"}"#);
    let e8 = wire.recv();
    assert!(
        e8.contains("\"type\":\"error\"") && e8.contains("scenario:"),
        "{e8}"
    );
    // A v4 scenario whose trace file is missing is rejected before
    // admission with a line-numbered `error` frame — not a panic —
    // and the connection stays usable.
    wire.send(
        r#"{"type":"submit","scenario":"acsched-scenario v4\ntaskset t trace /no/such.trace\nprocessor p linear kappa=50 vmin=1 vmax=4\npolicy greedy\nworkload paper\n"}"#,
    );
    let e9 = wire.recv();
    assert!(
        e9.contains("\"type\":\"error\"")
            && e9.contains("cannot read trace")
            && e9.contains("\"line\":"),
        "{e9}"
    );

    wire.send(r#"{"type":"stats"}"#);
    assert!(wire.recv().contains("\"type\":\"stats\""));
}

#[test]
fn corrupt_checkpoint_line_reruns_only_that_chunk() {
    let ckpt_dir = temp_dir("corrupt-ckpt");
    let addr = spawn_in_process(ServerConfig {
        ckpt_dir: ckpt_dir.clone(),
        ..ServerConfig::default()
    });
    let scenario = std::fs::read_to_string(manifest_path("scenarios/smoke.txt")).unwrap();
    let submit = |resume: bool| {
        acs_serve::submit(&SubmitOptions {
            addr: addr.clone(),
            scenario: scenario.clone(),
            id: Some("corrupt-test".into()),
            resume,
            threads: Some(2),
            chunk: Some(1),
            quiet: true,
        })
        .unwrap()
    };

    let first = submit(false);
    assert_eq!(first.cells, 3, "smoke.txt is a 3-cell grid");
    assert_eq!(first.chunks_run, 3);

    // Flip bytes inside the second chunk line's payload; its CRC now
    // fails and resume must drop exactly that chunk.
    let path = ckpt_dir.join("corrupt-test.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 4, "header + 3 chunks");
    lines[2] = lines[2].replacen("\"chunk\":1", "\"chunk\":9", 1);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let resumed = submit(true);
    assert_eq!(
        resumed.corrupt_lines, 1,
        "the tampered line must be detected"
    );
    assert_eq!(
        resumed.resumed_chunks, 2,
        "two chunks survive the corruption"
    );
    assert_eq!(resumed.chunks_replayed, 2);
    assert_eq!(resumed.chunks_run, 1, "only the corrupt chunk re-runs");
    assert_eq!(resumed.csv, first.csv, "the spliced output is unchanged");
}

#[test]
fn admission_cap_rejects_surplus_and_duplicate_campaigns() {
    let addr = spawn_in_process(ServerConfig {
        ckpt_dir: temp_dir("admission"),
        max_campaigns: 1,
        ..ServerConfig::default()
    });
    // A grid big enough to still be running when the second submit
    // lands (the second submit goes out the instant the first is
    // accepted, so the window is the whole campaign).
    let scenario = std::fs::read_to_string(manifest_path("scenarios/serve_warm.txt"))
        .unwrap()
        .replace("hyper_periods 3", "hyper_periods 40");
    let escaped = scenario
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");

    let mut first = Wire::connect(&addr);
    first.hello();
    first.send(&format!(
        r#"{{"type":"submit","scenario":"{escaped}","id":"slow"}}"#
    ));
    let accepted = first.recv();
    assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");

    // While `slow` runs, the server is at its 1-campaign cap.
    let mut second = Wire::connect(&addr);
    second.hello();
    second.send(&format!(
        r#"{{"type":"submit","scenario":"{escaped}","id":"other"}}"#
    ));
    let rejected = second.recv();
    assert!(
        rejected.contains("\"type\":\"error\"") && rejected.contains("at capacity"),
        "{rejected}"
    );

    // Drain the first campaign; afterwards the slot frees up.
    loop {
        let frame = first.recv();
        assert!(!frame.contains("\"type\":\"error\""), "{frame}");
        if frame.contains("\"type\":\"done\"") {
            break;
        }
    }
    second.send(&format!(
        r#"{{"type":"submit","scenario":"{escaped}","id":"other"}}"#
    ));
    let retried = second.recv();
    assert!(retried.contains("\"type\":\"accepted\""), "{retried}");
}

/// The headline guarantee: SIGKILL the server mid-campaign, restart,
/// `submit --resume`, and the finished chunks replay from the
/// checkpoint instead of re-running — with the final CSV byte-identical
/// to an uninterrupted local run at 1, 2 and 8 threads.
#[test]
fn sigkill_mid_campaign_then_resume_is_byte_identical() {
    let ckpt_dir = temp_dir("sigkill");
    let scenario_path = manifest_path("scenarios/multicore_sweep.txt");
    let scenario = std::fs::read_to_string(&scenario_path).unwrap();

    // Serve with 1-cell chunks and a tight in-flight bound so the
    // kill lands between checkpointed chunks, not after the campaign.
    let mut server = spawn_server(&ckpt_dir);
    let addr = server.addr.clone();

    // Drive the protocol by hand so we can kill after the third
    // record frame.
    let mut wire = Wire::connect(&addr);
    wire.hello();
    let escaped = scenario
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    wire.send(&format!(
        r#"{{"type":"submit","scenario":"{escaped}","id":"sweep","chunk":1}}"#
    ));
    let accepted = wire.recv();
    assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");
    let mut records = 0;
    while records < 3 {
        if wire.recv().contains("\"type\":\"record\"") {
            records += 1;
        }
    }
    server.child.kill().unwrap(); // SIGKILL on unix
    server.child.wait().unwrap();

    // Restart against the same checkpoint directory and resume.
    let mut server = spawn_server(&ckpt_dir);
    let outcome = acs_serve::submit(&SubmitOptions {
        addr: server.addr.clone(),
        scenario,
        id: Some("sweep".into()),
        resume: true,
        threads: None,
        chunk: None, // the checkpoint's chunk size (1) wins on resume
        quiet: true,
    })
    .unwrap();
    server.child.kill().unwrap();
    server.child.wait().unwrap();

    assert_eq!(outcome.cells, 15, "multicore_sweep.txt is a 15-cell grid");
    assert!(
        outcome.resumed_chunks >= 3,
        "the {} streamed-and-checkpointed chunks must replay (got {})",
        records,
        outcome.resumed_chunks
    );
    assert_eq!(outcome.chunks_replayed, outcome.resumed_chunks);
    assert_eq!(
        outcome.chunks_run + outcome.chunks_replayed,
        15,
        "every chunk is either replayed or re-run, never both"
    );
    assert_eq!(
        outcome.corrupt_lines, 0,
        "a SIGKILL between fsyncs loses nothing"
    );

    for threads in [1, 2, 8] {
        assert_eq!(
            outcome.csv,
            local_csv(&scenario_path, threads),
            "served+resumed CSV must be byte-identical to a local run at {threads} threads"
        );
    }
}

struct Server {
    child: Child,
    addr: String,
}

/// Spawn the real `acsched serve` binary on a free port and wait for
/// its `listening on <addr>` line.
fn spawn_server(ckpt_dir: &Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_acsched"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--ckpt-dir",
            ckpt_dir.to_str().unwrap(),
            "--inflight",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {first_line:?}"))
        .to_string();
    Server { child, addr }
}

/// Regression guard: dropping the client mid-stream must not wedge the
/// server — a later submission on a fresh connection still completes.
#[test]
fn client_hangup_mid_campaign_frees_the_admission_slot() {
    let addr = spawn_in_process(ServerConfig {
        ckpt_dir: temp_dir("hangup"),
        max_campaigns: 1,
        ..ServerConfig::default()
    });
    let scenario = std::fs::read_to_string(manifest_path("scenarios/smoke.txt")).unwrap();
    let escaped = scenario
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");

    {
        let mut wire = Wire::connect(&addr);
        wire.hello();
        wire.send(&format!(
            r#"{{"type":"submit","scenario":"{escaped}","chunk":1}}"#
        ));
        let accepted = wire.recv();
        assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");
        // Drop the connection without reading the stream.
    }

    // The slot must free once the server notices the hangup; poll a
    // fresh submission until it is admitted.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match acs_serve::submit(&SubmitOptions {
            addr: addr.clone(),
            scenario: scenario.clone(),
            id: None,
            resume: false,
            threads: None,
            chunk: None,
            quiet: true,
        }) {
            Ok(outcome) => {
                assert_eq!(outcome.cells, 3);
                break;
            }
            Err(e) if e.contains("at capacity") || e.contains("already running") => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "admission slot never freed after client hangup: {e}"
                );
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

/// `csv` with the four solver-counter columns blanked on `reopt` rows:
/// a warm shared solver cache moves only those counters.
fn mask_solver_counters(csv: &str) -> String {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let column = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let policy = column("policy");
    let counters = [
        "solver_lookups",
        "solver_cache_hits",
        "boundary_resolves",
        "resolves_adopted",
    ]
    .map(column);
    let mut out = header.join(",") + "\n";
    for line in lines {
        let mut fields: Vec<&str> = line.split(',').collect();
        if fields[policy] == "reopt" {
            for &c in &counters {
                fields[c] = "";
            }
        }
        out += &(fields.join(",") + "\n");
    }
    out
}

/// Served warm-cache runs are pinned across commits: the first
/// submission of `serve_warm.txt` to a fresh server is its golden byte
/// for byte, and a resubmission, which the server's shared solver cache
/// serves warm, equals the golden once the solver counters are masked.
#[test]
fn served_warm_resubmission_matches_the_golden_with_solver_counters_masked() {
    let addr = spawn_in_process(ServerConfig {
        ckpt_dir: temp_dir("warm-golden"),
        ..ServerConfig::default()
    });
    let scenario = std::fs::read_to_string(manifest_path("scenarios/serve_warm.txt")).unwrap();
    let submit = || {
        acs_serve::submit(&SubmitOptions {
            addr: addr.clone(),
            scenario: scenario.clone(),
            id: None,
            resume: false,
            threads: Some(1),
            chunk: None,
            quiet: true,
        })
        .unwrap()
        .csv
    };
    let golden = std::fs::read_to_string(manifest_path("tests/golden/serve_warm.csv")).unwrap();

    let cold = submit();
    assert_eq!(cold, golden, "a cold served run reproduces the golden");
    let warm = submit();
    assert_eq!(
        mask_solver_counters(&warm),
        mask_solver_counters(&golden),
        "a warm served run differs from the golden only in solver counters"
    );
    let stats = acs_serve::stats(&addr).unwrap();
    assert!(
        stats.contains("\"solver_hits\":") && !stats.contains("\"solver_hits\":0,"),
        "the resubmission never hit the solver cache: {stats}"
    );
}
