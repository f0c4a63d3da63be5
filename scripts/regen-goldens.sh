#!/usr/bin/env sh
# Regenerates every golden CSV and JSONL file in tests/golden/ from the
# scenario of the same name in scenarios/, with `acsched run --threads 1`
# on a release build, then shows which goldens moved. tests/golden.rs
# asserts all eighteen byte for byte: ten fast ones in any build (nine
# CSVs plus smoke.jsonl), and in release the seven paper-scale grids
# (fig6a_random, fig6a_threeway, fig6b_cnc_gap and the ablations
# ablation_objective, ablation_policies, ablation_discrete,
# ablation_bimodal) plus bursty_trace, which replays the million-job
# trace generated first below. Takes about 4.5 minutes on a 2-vCPU host,
# nearly all of it in the paper-scale grids.
#
# Rule: a change that moves any golden explains why in its CHANGES.md
# entry. To pin a new scenario, create an empty tests/golden/<name>.csv
# (or <name>.jsonl), add it to tests/golden.rs and run this script.
#
# Run from anywhere; paths resolve against the repository root.
set -eu

cd "$(dirname "$0")/.."
cargo build --release --quiet --bin acsched
mkdir -p traces
./target/release/acsched trace gen --profile bursty --jobs 1000000 --out traces/bursty.trace

for golden in tests/golden/*.csv tests/golden/*.jsonl; do
    name=$(basename "$golden")
    ./target/release/acsched run "scenarios/${name%.*}.txt" --threads 1 --quiet --out "$golden"
done

git --no-pager diff --stat -- tests/golden
