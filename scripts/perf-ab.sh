#!/usr/bin/env sh
# Same-runner performance A/B against a base revision: builds the
# benchmark (perfbench/) at <base-rev> and in this working tree, runs
# alternating pairs of every BENCHMARK.json workload on this machine,
# prints one table per workload and exits 1 on a real regression of an
# end-to-end metric. The rule is in scripts/perf-verdict.awk and
# docs/PERF.md ("The A/B gate").
#
#   sh scripts/perf-ab.sh <base-rev>
#
# The base is checked out as a git worktree in target/perf-ab/base and
# removed at exit; every run's last stdout line is kept in
# target/perf-ab/results/<workload>.<base|head> and its stderr in
# <workload>.<side>.log there. Each side's perfbench is built once, in
# its own tree, and runs from that tree's root, so the benchmark's
# scratch directory and source digest belong to the code it measures.
# A full A/B takes about 14 minutes (4 workloads x 5 pairs x 2 sides x
# 20 s) plus two release builds. Exits 0 on a pass, 1 on a regression,
# 2 on a bad argument, and with cargo's status if HEAD does not build.
set -eu

# Five pairs: the fewest for which losing most pairs takes three
# losses, so that one disturbed pair cannot fail the gate, while a full
# A/B stays near a quarter of an hour.
PAIRS=5

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/perf-ab.sh <base-rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "perf-ab: '$1' names no commit" >&2
    exit 2
}

dir=target/perf-ab
results=$dir/results
rm -rf "$dir"
git worktree prune
mkdir -p "$results"
git worktree add --quiet --detach "$dir/base" "$base"
trap 'git worktree remove --force "$dir/base"' EXIT

# The run length and the workload names, from BENCHMARK.json (one
# workload per line).
seconds=$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' BENCHMARK.json)
workloads=$(awk -F'"' '/"why"/ { print $4 }' BENCHMARK.json)

# build <tree>: that tree's release perfbench, in its own target
# directory even when CARGO_TARGET_DIR is set, since both sides' binaries
# have one name.
build() {
    (cd "$1" && cargo build --release --quiet --manifest-path perfbench/Cargo.toml \
        --target-dir perfbench/target)
}

echo "perf-ab: building perfbench at HEAD and at base ${base}" >&2
build .
if ! build "$dir/base"; then
    echo "perf-ab: the base's perfbench does not build; every metric is new" >&2
fi

# run <side> <workload> <seed>: one untraced run from the side's tree
# root, appending its last stdout line (empty if none) to the results.
run() {
    tree=.
    [ "$1" = base ] && tree=$dir/base
    echo "perf-ab: $2 seed $3 $1" >&2
    line=$(cd "$tree" && perfbench/target/release/acs-perfbench --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 2>>"$root/$results/$2.$1.log" | tail -n 1) || true
    printf '%s\n' "$line" >>"$results/$2.$1"
}

for w in $workloads; do
    pair=1
    while [ "$pair" -le "$PAIRS" ]; do
        # Pair i runs seed i on both sides; even pairs run the base
        # first, odd pairs HEAD, so a drifting machine loads both alike.
        if [ $((pair % 2)) -eq 0 ]; then
            run base "$w" "$pair"
            run head "$w" "$pair"
        else
            run head "$w" "$pair"
            run base "$w" "$pair"
        fi
        pair=$((pair + 1))
    done
done

echo "perf-ab: base $base vs HEAD $(git rev-parse HEAD) (working tree)"
awk -v results="$results" -f scripts/perf-verdict.awk BENCHMARK.json
