# The verdict of scripts/perf-ab.sh, kept apart from the runs so that
# scripts/check-perf-verdict.sh can feed it canned results. Reads
# BENCHMARK.json (one workload or metric per line: the workloads, and
# each end-to-end metric's `better` and `bound`) and, per workload W,
# the files <results>/W.base and <results>/W.head: one perfbench
# result line per pair, in pair order, empty where a run printed none.
#
#   awk -v results=<dir> -f scripts/perf-verdict.awk BENCHMARK.json
#
# Per (workload, end-to-end metric), over the pairs' medians and
# quartiles:
#   FAIL        HEAD's median is worse than the base's by more than
#               `bound`, and HEAD is worse in most pairs (a tie counts
#               for neither side);
#   unresolved  the base's quartile spread, relative to its median,
#               exceeds `bound`: too noisy to tell, so no fail, unless
#               every HEAD run is worse than every base run (FAIL);
#   new         the base reports no such metric or workload;
#   ok          otherwise.
# A workload also FAILs when a HEAD run is not `"correct": true` (a
# missing result line included), or when HEAD fails a larger share of
# its attempted cells than the base. Exit status 1 on any FAIL.

/"why"/ { workload[++nw] = field($0, "name") }
/"bound"/ {
    metric[++nm] = field($0, "name")
    better[nm] = field($0, "better")
    bound[nm] = field($0, "bound") + 0
}

END {
    for (k = 1; k <= nw; k++)
        judge(workload[k])
    printf "\n%s", failures
    if (fails) {
        printf "perf-ab: %d regression(s)\n", fails
        exit 1
    }
    print "perf-ab: no regression"
}

# The string or number value of "key" in a flat JSON object.
function field(obj, key,    v) {
    if (!match(obj, "\"" key "\": *(\"[^\"]*\"|[-+.0-9eE]+)"))
        return ""
    v = substr(obj, RSTART, RLENGTH)
    sub(/^"[^"]*": */, "", v)
    gsub(/"/, "", v)
    return v
}

# Reads <results>/<w>.<side> into val[w, side, pair, metric], the runs'
# correctness and the side's cell counts; returns the number of pairs.
function load(w, side,    file, line, p, s, kv, name) {
    file = results "/" w "." side
    while ((getline line < file) > 0) {
        correct[w, side, ++p] = (line ~ /"correct": *true/)
        attempted[w, side] += field(line, "attempted")
        failed[w, side] += field(line, "failed")
        s = line
        while (match(s, /"[^"]+": *\{"value": *[^,}]+/)) {
            kv = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            name = kv
            sub(/^"/, "", name)
            sub(/".*/, "", name)
            sub(/.*"value": */, "", kv)
            val[w, side, p, name] = kv + 0
        }
    }
    close(file)
    return p + 0
}

function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--)
            a[j + 1] = a[j]
        a[j + 1] = t
    }
}

# The p-quantile of sorted a[1..n], interpolated between order
# statistics (for five pairs: q1, median, q3 = a[2], a[3], a[4]).
function quantile(a, n, p,    x, i) {
    x = 1 + p * (n - 1)
    i = int(x)
    return i < n ? a[i] + (x - i) * (a[i + 1] - a[i]) : a[n]
}

function summary(a, n) {
    return sprintf("%.4g [%.4g, %.4g]", quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
}

# Failed cells per attempted cell of one side (0 when it ran nothing).
function share(w, side) {
    return attempted[w, side] ? failed[w, side] / attempted[w, side] : 0
}

function row(name, b, h, change, lost, verdict) {
    printf "  %-20s %-34s %-34s %8s %6s  %s\n", name, b, h, change, lost, verdict
}

function fail(w, what, why) {
    fails++
    failures = failures sprintf("perf-ab: FAIL %s %s: %s\n", w, what, why)
}

function judge(w,    nb, n, p, i, m, sign, b, h, cb, ch, lost, both, den, change, spread, verdict, why, bad) {
    nb = load(w, "base")
    n = load(w, "head")
    if (nb > n)
        n = nb
    printf "\n%s (%d pairs)\n", w, n
    row("metric", "base median [q1, q3]", "HEAD median [q1, q3]", "change", "lost", "verdict")
    for (i = 1; i <= nm; i++) {
        m = metric[i]
        sign = better[i] == "lower" ? 1 : -1
        cb = ch = lost = both = 0
        for (p = 1; p <= n; p++) {
            if ((w, "base", p, m) in val)
                b[++cb] = val[w, "base", p, m]
            if ((w, "head", p, m) in val)
                h[++ch] = val[w, "head", p, m]
            if (((w, "base", p, m) in val) && ((w, "head", p, m) in val)) {
                both++
                lost += (sign * (val[w, "head", p, m] - val[w, "base", p, m]) > 0)
            }
        }
        if (ch)
            sort(h, ch)
        if (cb == 0) {
            row(m, "-", ch ? summary(h, ch) : "-", "", "", "new")
            continue
        }
        sort(b, cb)
        if (ch == 0) {
            row(m, summary(b, cb), "-", "", "", "FAIL")
            fail(w, m, "HEAD reports no value")
            continue
        }
        den = quantile(b, cb, 0.5)
        change = quantile(h, ch, 0.5) - den
        if (den < 0)
            den = -den
        # Any move away from a zero base median counts as unbounded.
        if (den == 0)
            den = 1e-300
        change /= den
        spread = (quantile(b, cb, 0.75) - quantile(b, cb, 0.25)) / den
        verdict = "ok"
        if (spread > bound[i]) {
            verdict = "unresolved"
            if (sign > 0 ? h[1] > b[cb] : h[ch] < b[1]) {
                verdict = "FAIL"
                why = sprintf("base spread %.0f%% exceeds the %.0f%% bound, but every HEAD run is worse than every base run", 100 * spread, 100 * bound[i])
            }
        } else if (sign * change > bound[i] && 2 * lost > both) {
            verdict = "FAIL"
            why = sprintf("median %+.3g%%, past the %.0f%% bound; HEAD worse in %d of %d pairs", 100 * change, 100 * bound[i], lost, both)
        }
        row(m, summary(b, cb), summary(h, ch), sprintf("%+.3g%%", 100 * change), lost "/" both, verdict)
        if (verdict == "FAIL")
            fail(w, m, why)
    }
    verdict = "ok"
    bad = n ? "" : "no HEAD run"
    for (p = 1; p <= n; p++)
        if (!correct[w, "head", p])
            bad = bad (bad == "" ? "pair " : ", ") p
    if (bad != "") {
        verdict = "FAIL"
        fail(w, "correct", "HEAD result not \"correct\": true: " bad)
    }
    if (share(w, "head") > share(w, "base")) {
        verdict = "FAIL"
        fail(w, "failed", sprintf("HEAD fails %d of %d cells, the base %d of %d", failed[w, "head"], attempted[w, "head"], failed[w, "base"], attempted[w, "base"]))
    }
    row("correct, failed", nb ? "failed " failed[w, "base"] "/" attempted[w, "base"] : "-", "failed " failed[w, "head"] "/" attempted[w, "head"], "", "", verdict)
}
