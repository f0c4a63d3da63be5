//! Golden results: each checked-in scenario below must reproduce its
//! CSV in `tests/golden/` byte for byte, pinning results *across
//! commits* rather than between two engines of one build. `smoke` also
//! pins its JSONL.
//!
//! The goldens are what `acsched run <scenario> --threads 1 --out
//! <name>.csv` (or `<name>.jsonl`) writes; debug and release builds
//! write the same bytes.
//! Regenerate them with `scripts/regen-goldens.sh`. A change that moves
//! any golden must explain why in its CHANGES.md entry.
//!
//! Every paper artifact is one of these scenarios, so its golden pins
//! the numbers its `acs-bench` renderer prints. The paper-scale grids
//! (`fig6a_random`, `fig6a_threeway`, `fig6b_cnc_gap` and the ablations
//! `ablation_objective`, `ablation_policies`, `ablation_discrete`,
//! `ablation_bimodal`) and the million-job `bursty_trace` replay are
//! `#[ignore]`d, so the debug suite stays fast; `cargo test --release
//! --test golden -- --include-ignored` runs them.
//!
//! The `threaded` tests rerun every scenario without ReOpt rows at 2
//! and 8 worker threads against the same goldens. There the workers
//! also run the WCS/ACS solves, in whatever interleaving the run
//! produces, so these pin that no solve's bits depend on it. ReOpt rows
//! are left out because their solver-cache counters do depend on it.

use acsched::prelude::*;
use acsched::trace::{generate, GenConfig, MmppProfile};

fn scenario_text(name: &str) -> String {
    let path = format!("{}/scenarios/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Reruns a scenario at `threads` workers into the sink the golden
/// file's extension names.
fn rerun(scenario_text: &str, file: &str, threads: usize) -> Vec<u8> {
    let scenario = Scenario::from_text(scenario_text).expect("scenario parses");
    let campaign = scenario
        .campaign_builder()
        .expect("scenario materializes")
        .threads(threads)
        .build()
        .expect("campaign builds");
    let mut out = Vec::new();
    if file.ends_with(".jsonl") {
        campaign.run_with(&mut JsonlSink::new(&mut out))
    } else {
        campaign.run_with(&mut CsvSink::new(&mut out))
    }
    .expect("in-memory sink");
    out
}

/// Asserts that `scenario_text` reproduces `tests/golden/<file>`
/// (`<name>.csv` or `<name>.jsonl`) byte for byte at each worker count
/// in `threads`.
fn assert_golden(file: &str, scenario_text: &str, threads: &[usize]) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for &threads in threads {
        let fresh =
            String::from_utf8(rerun(scenario_text, file, threads)).expect("output is UTF-8");
        if fresh == golden {
            continue;
        }
        let (line, (want, got)) = golden
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, pair)| (i + 1, pair))
            .unwrap_or((0, ("(line count)", "(line count)")));
        panic!(
            "{file} at {threads} threads: output diverges from {path} at line {line} \
             ({} vs {} lines)\n\
             golden: {want}\n\
             fresh:  {got}",
            golden.lines().count(),
            fresh.lines().count()
        );
    }
}

/// One test per scenario name, checking its CSV golden at the given
/// worker counts.
macro_rules! golden {
    (threads $threads:expr => $($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            assert_golden(
                concat!(stringify!($name), ".csv"),
                &scenario_text(stringify!($name)),
                &$threads,
            );
        }
    )*};
    (#[ignore = $why:literal] threads $threads:expr => $($name:ident),* $(,)?) => {$(
        #[test]
        #[ignore = $why]
        fn $name() {
            assert_golden(
                concat!(stringify!($name), ".csv"),
                &scenario_text(stringify!($name)),
                &$threads,
            );
        }
    )*};
}

golden!(
    threads [1] =>
    smoke,
    edf_vs_rm,
    multicore_sweep,
    dag_global,
    global_dispatch,
    arrivals_sweep,
    design_space,
    serve_warm,
    alpha_law,
);

/// JSONL is pinned too: `smoke.jsonl` is what `acsched run
/// scenarios/smoke.txt --threads 1 --out smoke.jsonl` writes.
#[test]
fn smoke_jsonl() {
    assert_golden("smoke.jsonl", &scenario_text("smoke"), &[1]);
}

golden!(
    #[ignore = "paper-scale: minutes; release only"]
    threads [1] =>
    fig6a_random,
    fig6a_threeway,
    fig6b_cnc_gap,
    ablation_objective,
    ablation_policies,
    ablation_discrete,
    ablation_bimodal,
);

/// `bursty_trace` replays a trace that is generated, never checked in:
/// the same trace as `acsched trace gen --profile bursty --jobs 1000000`
/// is written to a temporary directory and the scenario points there.
#[test]
#[ignore = "a million trace jobs: release only"]
fn bursty_trace() {
    let dir = std::env::temp_dir().join(format!("acsched-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("bursty.trace");
    let cfg = GenConfig {
        profile: MmppProfile::Bursty,
        jobs: 1_000_000,
        seed: 0,
        tasks: 4,
    };
    let file = std::fs::File::create(&trace).unwrap();
    generate(&cfg, std::io::BufWriter::new(file)).unwrap();
    let text =
        scenario_text("bursty_trace").replace("traces/bursty.trace", trace.to_str().unwrap());
    assert_golden("bursty_trace.csv", &text, &[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The goldens of every scenario without ReOpt rows, again at 2 and 8
/// worker threads.
mod threaded {
    use super::*;

    golden!(
        threads [2, 8] =>
        smoke,
        edf_vs_rm,
        multicore_sweep,
        dag_global,
        global_dispatch,
        arrivals_sweep,
        design_space,
        alpha_law,
    );

    golden!(
        #[ignore = "paper-scale: minutes; release only"]
        threads [2, 8] =>
        fig6a_random,
        fig6b_cnc_gap,
        ablation_objective,
        ablation_discrete,
        ablation_bimodal,
    );
}
