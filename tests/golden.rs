//! Golden results: each checked-in scenario below must reproduce its
//! CSV in `tests/golden/` byte for byte, pinning results *across
//! commits* rather than between two engines of one build.
//!
//! The goldens are what `acsched run <scenario> --threads 1 --out
//! <name>.csv` writes; debug and release builds write the same bytes.
//! Regenerate them with `scripts/regen-goldens.sh`. A change that moves
//! any golden must explain why in its CHANGES.md entry.
//!
//! The paper-scale grids (`fig6a_random`, `fig6a_threeway`,
//! `ablation_policies`) and the million-job `bursty_trace` replay are
//! `#[ignore]`d, so the debug suite stays fast; `cargo test --release
//! --test golden -- --include-ignored` runs them.

use acsched::prelude::*;
use acsched::trace::{generate, GenConfig, MmppProfile};

fn scenario_text(name: &str) -> String {
    let path = format!("{}/scenarios/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn rerun(scenario_text: &str) -> Vec<u8> {
    let scenario = Scenario::from_text(scenario_text).expect("scenario parses");
    let campaign = scenario
        .campaign_builder()
        .expect("scenario materializes")
        .threads(1)
        .build()
        .expect("campaign builds");
    let mut csv = CsvSink::new(Vec::new());
    campaign.run_with(&mut csv).expect("in-memory sink");
    csv.into_inner()
}

fn assert_golden(name: &str, scenario_text: &str) {
    let path = format!("{}/tests/golden/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = String::from_utf8(rerun(scenario_text)).expect("CSV is UTF-8");
    if fresh == golden {
        return;
    }
    let (line, (want, got)) = golden
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, pair)| (i + 1, pair))
        .unwrap_or((0, ("(line count)", "(line count)")));
    panic!(
        "{name}: CSV diverges from {path} at line {line} ({} vs {} lines)\n\
         golden: {want}\n\
         fresh:  {got}",
        golden.lines().count(),
        fresh.lines().count()
    );
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            assert_golden(stringify!($name), &scenario_text(stringify!($name)));
        }
    )*};
    (#[ignore = $why:literal] $($name:ident),* $(,)?) => {$(
        #[test]
        #[ignore = $why]
        fn $name() {
            assert_golden(stringify!($name), &scenario_text(stringify!($name)));
        }
    )*};
}

golden!(
    smoke,
    edf_vs_rm,
    multicore_sweep,
    dag_global,
    global_dispatch,
    arrivals_sweep,
    design_space,
    serve_warm,
);

golden!(
    #[ignore = "paper-scale: minutes; release only"]
    fig6a_random,
    fig6a_threeway,
    ablation_policies,
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
    assert_golden("bursty_trace", &text);
    let _ = std::fs::remove_dir_all(&dir);
}
