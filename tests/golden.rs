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
//! `ablation_policies`) are `#[ignore]`d, so the debug suite stays fast;
//! `cargo test --release --test golden -- --include-ignored` runs them.

use acsched::prelude::*;

fn rerun(name: &str) -> Vec<u8> {
    let root = env!("CARGO_MANIFEST_DIR");
    let scenario = Scenario::load(format!("{root}/scenarios/{name}.txt")).expect("scenario parses");
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

fn assert_golden(name: &str) {
    let path = format!("{}/tests/golden/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = String::from_utf8(rerun(name)).expect("CSV is UTF-8");
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
            assert_golden(stringify!($name));
        }
    )*};
    (#[ignore = $why:literal] $($name:ident),* $(,)?) => {$(
        #[test]
        #[ignore = $why]
        fn $name() {
            assert_golden(stringify!($name));
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
