#!/usr/bin/env sh
# Feeds the A/B verdict (scripts/perf-verdict.awk) canned perfbench
# result lines for every BENCHMARK.json workload and asserts its
# outcome, without building or running anything:
#
#   identical    HEAD equals the base                 -> pass
#   slow         engine_long cells_per_s halved       -> fail, naming both
#   split        setup_s median +30%, but HEAD worse
#                in only 2 of 5 pairs                 -> pass
#   incorrect    one HEAD run "correct": false        -> fail
#   noisy        the base's setup_s spreads past its
#                bound, HEAD +30% in 4 of 5 pairs     -> unresolved, pass
#   noisy_worse  as noisy, but every HEAD run is
#                worse than every base run            -> fail
#
# Takes well under a second. Run from anywhere.
set -eu

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# pairs <case> <workload> <side> <setup_s x5> <cells_per_s x5> [bad pair]:
# five result lines carrying every end-to-end metric, pair i taking the
# i-th value of each list; the bad pair is not "correct".
pairs() {
    mkdir -p "$dir/$1"
    awk -v setup="$4" -v cells="$5" -v bad="${6:-0}" 'BEGIN {
        split(setup, s)
        split(cells, c)
        for (i = 1; i <= 5; i++)
            printf "{\"correct\": %s, \"attempted\": 120, \"failed\": 0, \"metrics\": {" \
                "\"setup_s\": {\"value\": %s, \"unit\": \"s\"}, " \
                "\"cells_per_s\": {\"value\": %s, \"unit\": \"1/s\"}, " \
                "\"jobs_per_s\": {\"value\": 250000, \"unit\": \"1/s\"}, " \
                "\"first_record_s\": {\"value\": 0.04, \"unit\": \"s\"}, " \
                "\"submit_p50_ms\": {\"value\": 180, \"unit\": \"ms\"}, " \
                "\"submit_p90_ms\": {\"value\": 210, \"unit\": \"ms\"}, " \
                "\"peak_rss_mb\": {\"value\": 24.5, \"unit\": \"MiB\"}, " \
                "\"acs_energy_ratio\": {\"value\": 0.79, \"unit\": \"ratio\"}, " \
                "\"reopt_energy_ratio\": {\"value\": 0.93, \"unit\": \"ratio\"}}}\n",
                i == bad ? "false" : "true", s[i], c[i]
    }' >"$dir/$1/$2.$3"
}

setup='0.010 0.0101 0.0099 0.0102 0.0100'
cells='300 303 297 306 300'
noisy='0.010 0.015 0.020 0.025 0.030'
for case in identical slow split incorrect noisy noisy_worse; do
    for w in $(awk -F'"' '/"why"/ { print $4 }' BENCHMARK.json); do
        pairs "$case" "$w" base "$setup" "$cells"
        pairs "$case" "$w" head "$setup" "$cells"
    done
done
pairs slow engine_long head "$setup" '150 151 149 153 150'
pairs split reopt_online base '0.010 0.010 0.010 0.010 1.0' "$cells"
pairs split reopt_online head '0.013 0.013 0.009 0.009 0.013' "$cells"
pairs incorrect engine_long head "$setup" "$cells" 3
pairs noisy plan_paper base "$noisy" "$cells"
pairs noisy plan_paper head '0.026 0.026 0.026 0.026 0.026' "$cells"
pairs noisy_worse plan_paper base "$noisy" "$cells"
pairs noisy_worse plan_paper head '0.031 0.031 0.031 0.031 0.031' "$cells"

bad=0
# expect <case> <exit status> <regex the output matches> <regex it must not>
expect() {
    status=0
    awk -v results="$dir/$1" -f scripts/perf-verdict.awk BENCHMARK.json >"$dir/$1.out" || status=$?
    if [ "$status" -eq "$2" ] && grep -Eq "$3" "$dir/$1.out" && ! grep -Eq "$4" "$dir/$1.out"; then
        echo "check-perf-verdict: $1: ok"
    else
        echo "check-perf-verdict: $1: exit $status, expected $2, /$3/ and not /$4/" >&2
        cat "$dir/$1.out" >&2
        bad=1
    fi
}

expect identical 0 '^perf-ab: no regression$' 'FAIL|unresolved'
expect slow 1 '^perf-ab: FAIL engine_long cells_per_s: ' 'FAIL (plan_paper|reopt_online|serve_resubmit|engine_long [^c])'
expect split 0 '^  setup_s .* \+30% +2/5  ok$' 'FAIL|unresolved'
expect incorrect 1 '^perf-ab: FAIL engine_long correct: .*pair 3$' 'FAIL [a-z_]+ [a-z_]+_(s|ms|mb|ratio): '
expect noisy 0 '^  setup_s .* unresolved$' 'FAIL'
expect noisy_worse 1 '^perf-ab: FAIL plan_paper setup_s: .*every HEAD run is worse' 'FAIL (reopt_online|engine_long|serve_resubmit)'
exit $bad
