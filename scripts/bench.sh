#!/usr/bin/env bash
# bench.sh — run the serving hot-path benchmarks and emit a JSON snapshot.
#
# Usage:
#   scripts/bench.sh                  # print JSON to stdout
#   scripts/bench.sh BENCH_4.json     # write the snapshot for PR 4
#   BENCHTIME=3s scripts/bench.sh     # longer runs for quieter numbers
#   BENCHCOUNT=3 scripts/bench.sh     # run each benchmark N times, snapshot
#                                     # the per-benchmark median (quietest
#                                     # option on shared hardware)
#
# The tracked benchmarks are the per-request allocation budget of the warm
# serving path (docs/PERF.md). Compare a fresh run against the newest
# checked-in BENCH_*.json before merging a PR that touches the query engine,
# the R*-tree, or the server: allocs/op is expected to stay at its floor and
# ns/op should not regress materially.
#
# After the benchmarks, the open-loop scenario matrix (cmd/proload,
# docs/LOAD.md) runs against a 4-shard in-process cluster and its scenario
# reports are merged into the snapshot under "load", so SLO-level numbers
# (achieved QPS, p99/p999, shed/error counts per scenario) are tracked
# across PRs alongside the microbenchmarks. Set PROLOAD_SKIP=1 to emit a
# benchmarks-only snapshot. When writing BENCH_<pr>.json, each scenario's
# p99, achieved QPS, and error count are also compared against the previous
# snapshot's load section, warning beyond LOAD_WARN_PCT percent (default 25).
#
# Regression gate: when writing BENCH_<pr>.json, the fresh numbers are
# diffed against the newest previously checked-in BENCH_*.json. Any tracked
# benchmark whose ns/op regressed by more than GATE_PCT percent (default
# 15) fails the run after the snapshot is written, so the numbers are still
# there to look at. Set BENCH_GATE_SKIP=1 to write a snapshot without
# gating (e.g. when switching benchmark machines — absolute ns/op is
# hardware-bound, see docs/PERF.md).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-}"
BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-1}"
PATTERN='^(BenchmarkServerExecuteParallel|BenchmarkWarmRangeExecute|BenchmarkWarmKNNExecute|BenchmarkWarmJoinExecute|BenchmarkAPROBuild|BenchmarkMixedQueryBaseline|BenchmarkMixedQueryUnderUpdates|BenchmarkUpdateThroughput|BenchmarkClusterRange|BenchmarkClusterKNN)$'

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$RAW" >&2

# With BENCHCOUNT > 1 each benchmark reports several lines; the snapshot
# records the per-benchmark median of each column, which shrugs off a
# single noisy draw on shared hardware.
JSON="$(awk -v go_version="$(go version | awk '{print $3}')" -v benchtime="$BENCHTIME" '
function fmtnum(v) { return (v == int(v)) ? sprintf("%d", v) : sprintf("%g", v) }
function median(arr, name,    m, i, k, v, tmp) {
    m = cnt[name]
    for (i = 1; i <= m; i++) tmp[i] = arr[name, i]
    for (i = 2; i <= m; i++) {
        v = tmp[i]
        for (k = i - 1; k >= 1 && tmp[k] > v; k--) tmp[k + 1] = tmp[k]
        tmp[k + 1] = v
    }
    return tmp[int((m + 1) / 2)]
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (!(name in cnt)) order[++n] = name
    cnt[name]++
    nsv[name, cnt[name]] = ns + 0
    bv[name, cnt[name]] = bytes + 0
    av[name, cnt[name]] = allocs + 0
}
END {
    printf "{\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {\n", go_version, benchtime
    for (j = 1; j <= n; j++) {
        name = order[j]
        printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
            name, fmtnum(median(nsv, name)), fmtnum(median(bv, name)), \
            fmtnum(median(av, name)), (j < n) ? "," : ""
    }
    printf "  }\n}\n"
}
' "$RAW")"

if [ "${PROLOAD_SKIP:-0}" != "1" ]; then
    PROLOAD_QPS="${PROLOAD_QPS:-1000}"
    PROLOAD_DURATION="${PROLOAD_DURATION:-2s}"
    LOADJSON="$(mktemp)"
    trap 'rm -f "$RAW" "$LOADJSON"' EXIT
    go run ./cmd/proload -inprocess 4 -scenario all \
        -qps "$PROLOAD_QPS" -duration "$PROLOAD_DURATION" \
        -users 1000000 -workers 4 -json "$LOADJSON" >&2
    # The benchmark JSON ends with a lone "}"; splice the scenario report
    # in as a sibling "load" key.
    JSON="$(printf '%s' "$JSON" | sed '$d'; printf '  ,"load": '; cat "$LOADJSON"; printf '}\n')"
fi

if [ -n "$OUT" ]; then
    printf '%s' "$JSON" > "$OUT"
    echo "wrote $OUT" >&2
else
    printf '%s' "$JSON"
fi

# --- load-scenario SLO comparison ------------------------------------------
# Compare each scenario's SLO metrics (p99 latency, achieved QPS, error
# count) in the "load" section against the newest previous snapshot: warn
# on material movement (p99 up or achieved QPS down by more than
# LOAD_WARN_PCT percent, default 25, or errors growing at all) and FAIL the
# run when the drift crosses LOAD_GATE_PCT percent (default 50). Scenario
# numbers on shared CI hardware are noisier than the microbenchmark floor,
# so the hard threshold sits well above the warning one and p99 movements
# smaller than LOAD_FLOOR_US microseconds absolute (default 10000) are
# ignored outright; set SLO_GATE_SKIP=1 to record a snapshot without the
# hard gate (e.g. when switching benchmark machines) — warnings still print.
# Snapshots up to BENCH_10.json predate the all-cold matrix (baseline,
# flash-crowd, shard-skew): they share only the last two names, and those
# rows answered part of their traffic from simulated caches, so the first
# snapshot recorded against them needs SLO_GATE_SKIP=1. Their
# "load_edge_direct" and "load_edge" sections record the retired edge tier
# (docs/EDGE.md), and their "load_skew_static" and "load_skew_elastic"
# sections the retired rebalancer's A/B (docs/ELASTIC.md); no fresh
# snapshot has them, so they compare against nothing.
if [ -n "$OUT" ] && [ "${PROLOAD_SKIP:-0}" != "1" ]; then
    PREV="$(ls BENCH_*.json 2>/dev/null | grep -vFx "$OUT" | sort -t_ -k2 -n | tail -1 || true)"
    if [ -z "$PREV" ]; then
        echo "load: no previous BENCH_*.json snapshot, skipping SLO comparison" >&2
    else
        LOAD_WARN_PCT="${LOAD_WARN_PCT:-25}"
        LOAD_GATE_PCT="${LOAD_GATE_PCT:-50}"
        # Percentage drift on a 2ms p99 is dominated by scheduler/GC jitter:
        # a single late goroutine wakeup doubles it. Only treat a p99
        # regression as signal when the absolute change also clears
        # LOAD_FLOOR_US; real collapses (a scenario going from ms to
        # hundreds of ms) sail past the floor.
        LOAD_FLOOR_US="${LOAD_FLOOR_US:-10000}"
        echo "load: comparing scenario SLO metrics in $OUT against $PREV (warn beyond ${LOAD_WARN_PCT}%, fail beyond ${LOAD_GATE_PCT}%, p99 deltas under ${LOAD_FLOOR_US}us ignored)" >&2
        if ! awk -v pct="$LOAD_WARN_PCT" -v gatepct="$LOAD_GATE_PCT" -v floorus="$LOAD_FLOOR_US" '
            function num(s) { sub(/.*: /, "", s); sub(/,.*/, "", s); return s + 0 }
            function rec(s, k, v) {
                if (s == "") return
                if (FILENAME == ARGV[1]) prev[s, k] = v
                else cur[s, k] = v
            }
            # Older snapshots carry the retired edge and rebalancer A/B
            # sections; keep their rows out of "load".
            /"load_edge_direct":/  { sec = "edgedirect:" }
            /"load_edge":/         { sec = "edge:" }
            /"load_skew_static":/  { sec = "skewstatic:" }
            /"load_skew_elastic":/ { sec = "skewelastic:" }
            /"load":/              { sec = "" }
            /^[[:space:]]*"scenario":/ {
                s = $0; sub(/.*"scenario": "/, "", s); sub(/".*/, "", s); scen = sec s
            }
            /^[[:space:]]*"achieved_qps":/ { rec(scen, "qps", num($0)) }
            /^[[:space:]]*"p99_us":/       { rec(scen, "p99", num($0)) }
            /^[[:space:]]*"errors":/       { rec(scen, "err", num($0)) }
            END {
                warned = 0; fail = 0
                for (key in cur) {
                    split(key, a, SUBSEP); s = a[1]; k = a[2]
                    if (!((s, k) in prev)) continue
                    p = prev[s, k]; c = cur[s, k]
                    if (k == "err") {
                        if (c > p) {
                            printf "load: FAIL %s: errors %.0f -> %.0f\n", s, p, c
                            warned = 1; fail = 1
                        }
                        continue
                    }
                    if (p <= 0) continue
                    delta = (c - p) / p * 100
                    if (k == "p99" && delta > pct && c - p > floorus) {
                        printf "load: %s %s: p99 %.0fus -> %.0fus (%+.1f%%)\n", (delta > gatepct) ? "FAIL" : "WARN", s, p, c, delta
                        warned = 1; if (delta > gatepct) fail = 1
                    }
                    if (k == "qps" && delta < -pct) {
                        printf "load: %s %s: achieved qps %.0f -> %.0f (%+.1f%%)\n", (delta < -gatepct) ? "FAIL" : "WARN", s, p, c, delta
                        warned = 1; if (delta < -gatepct) fail = 1
                    }
                }
                if (!warned) printf "load: scenario SLO metrics within %s%% of the previous snapshot\n", pct
                exit fail
            }
        ' "$PREV" "$OUT" >&2; then
            if [ "${SLO_GATE_SKIP:-0}" = "1" ]; then
                echo "load: SLO regression beyond ${LOAD_GATE_PCT}% ignored (SLO_GATE_SKIP=1)" >&2
            else
                echo "load: scenario SLO regression beyond ${LOAD_GATE_PCT}% — investigate before merging (SLO_GATE_SKIP=1 to override)" >&2
                exit 1
            fi
        fi
    fi
fi

# --- regression gate -------------------------------------------------------
# Compare ns/op per benchmark against the newest previous snapshot.
if [ -n "$OUT" ] && [ "${BENCH_GATE_SKIP:-0}" != "1" ]; then
    PREV="$(ls BENCH_*.json 2>/dev/null | grep -vFx "$OUT" | sort -t_ -k2 -n | tail -1 || true)"
    if [ -z "$PREV" ]; then
        echo "gate: no previous BENCH_*.json snapshot, skipping" >&2
    else
        GATE_PCT="${GATE_PCT:-15}"
        echo "gate: comparing $OUT against $PREV (fail above +${GATE_PCT}% ns/op)" >&2
        if ! awk -v pct="$GATE_PCT" '
            # Benchmark lines in our snapshots look like:
            #   "BenchmarkName/case=x": {"ns_op": 1234, ...}
            # The "load" section carries no ns_op keys, so this pattern
            # only matches the tracked benchmark set.
            match($0, /"Benchmark[^"]*": \{"ns_op": [0-9.]+/) {
                s = substr($0, RSTART, RLENGTH)
                name = s; sub(/^"/, "", name); sub(/": .*/, "", name)
                ns = s; sub(/.*"ns_op": /, "", ns)
                if (FILENAME == ARGV[1]) prev[name] = ns + 0
                else cur[name] = ns + 0
            }
            END {
                fail = 0
                for (name in cur) {
                    if (!(name in prev) || prev[name] <= 0) continue
                    delta = (cur[name] - prev[name]) / prev[name] * 100
                    if (delta > pct) {
                        printf "gate: FAIL %s: %.0f -> %.0f ns/op (%+.1f%%)\n", name, prev[name], cur[name], delta
                        fail = 1
                    } else {
                        printf "gate: ok   %s: %.0f -> %.0f ns/op (%+.1f%%)\n", name, prev[name], cur[name], delta
                    }
                }
                exit fail
            }
        ' "$PREV" "$OUT" >&2; then
            echo "gate: ns/op regression beyond ${GATE_PCT}% — investigate before merging (BENCH_GATE_SKIP=1 to override)" >&2
            exit 1
        fi
    fi
fi
