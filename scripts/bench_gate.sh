#!/usr/bin/env sh
# bench_gate.sh — CI crawl-benchmark smoke + allocation ceilings +
# overhead gates.
#
# Runs the crawl-throughput gate (fails loudly if the crawl path breaks)
# and enforces committed ceilings before anyone reads profile
# numbers:
#
#   - allocs/visit <= MAX_ALLOCS on the bare crawl (PERF.md records the
#     measured numbers the ceiling is derived from);
#   - the metrics-attached crawl (full figure report accumulating on the
#     worker shards) costs at most MAX_METRICS_OVERHEAD_PCT of bare-crawl
#     time, measured by BenchmarkCrawl_MetricsOverhead. That benchmark
#     interleaves bare and metrics-attached crawls and compares per-side
#     *minimum* times — contention only ever inflates a deterministic
#     crawl, so per-attempt noise almost always inflates the measured
#     ratio (deflation would need the bare side contaminated in every one
#     of the interleaved samples while the metrics side gets a clean
#     window). Inflation failures are therefore retried up to
#     GATE_ATTEMPTS times; a real regression stays above the ceiling on
#     every attempt;
#   - the same two benchmarks' allocation counts: the attached crawl's
#     allocs/visit minus the bare crawl's stays at or below
#     MAX_METRICS_ALLOCS_DELTA (figure report) and MAX_OBS_ALLOCS_DELTA
#     (telemetry and trace plan). Unlike the time ratios, a count does
#     not move with host noise, so one reading decides.
set -e

MAX_ALLOCS=${MAX_ALLOCS:-200}
MAX_METRICS_OVERHEAD_PCT=${MAX_METRICS_OVERHEAD_PCT:-10}
MAX_OBS_OVERHEAD_PCT=${MAX_OBS_OVERHEAD_PCT:-5}
MAX_METRICS_ALLOCS_DELTA=${MAX_METRICS_ALLOCS_DELTA:-1.4}
MAX_OBS_ALLOCS_DELTA=${MAX_OBS_ALLOCS_DELTA:-0.2}
MAX_SWEEP_VARIANT_PCT=${MAX_SWEEP_VARIANT_PCT:-95}
GATE_ATTEMPTS=${GATE_ATTEMPTS:-3}
BASELINE=${BASELINE:-perf/bench.baseline.txt}

# The ceilings above are derived from the committed reference numbers,
# and any failure here is triaged against them (make benchstat). Refuse
# to gate against ceilings nobody can trace: fail up front, with
# instructions, when the baseline is missing.
if [ ! -f "$BASELINE" ]; then
    echo "bench gate: committed bench baseline $BASELINE is missing." >&2
    echo "bench gate: run 'make baseline' on the reference machine and commit the file before gating." >&2
    exit 1
fi

# metric_of <output> <benchmark> <metric>: pull one custom metric value
# off the benchmark's output line (name may carry a -GOMAXPROCS suffix).
metric_of() {
    echo "$1" | awk -v bench="$2" -v metric="$3" '
        $1 ~ "^"bench"(-[0-9]+)?$" {
            for (i = 1; i <= NF; i++) if ($i == metric) print $(i-1)
        }'
}

out=$(go test -run '^$' -bench '^BenchmarkCrawl_EndToEnd$' -benchtime 3x .)
echo "$out"

allocs=$(metric_of "$out" BenchmarkCrawl_EndToEnd allocs/visit)
if [ -z "$allocs" ]; then
    echo "bench gate: allocs/visit metric not found in benchmark output" >&2
    exit 1
fi
if ! awk -v a="$allocs" -v max="$MAX_ALLOCS" 'BEGIN { exit !(a <= max) }'; then
    echo "bench gate: allocs/visit $allocs exceeds ceiling $MAX_ALLOCS" >&2
    exit 1
fi
echo "bench gate: allocs/visit $allocs <= $MAX_ALLOCS"

# gate_ratio <benchmark> <metric> <ceiling> <label>: run a ratio-shaped
# benchmark up to GATE_ATTEMPTS times and require metric <= ceiling on
# some attempt (per-side-minimum benchmarks make noise inflationary, so
# retrying never lets a real regression through). The passing attempt's
# output stays in $out for gate_count.
gate_ratio() {
    bench=$1; metric=$2; ceiling=$3; label=$4
    attempt=1
    while [ "$attempt" -le "$GATE_ATTEMPTS" ]; do
        out=$(go test -run '^$' -bench "^$bench\$" -benchtime 10x .)
        echo "$out" | grep -E '^Benchmark' || true
        val=$(metric_of "$out" "$bench" "$metric")
        if [ -z "$val" ]; then
            echo "bench gate: $metric metric not found in $bench output" >&2
            exit 1
        fi
        if awk -v v="$val" -v max="$ceiling" 'BEGIN { exit !(v <= max) }'; then
            echo "bench gate: $label ${val}% <= ${ceiling}% (attempt $attempt)"
            return 0
        fi
        echo "bench gate: attempt $attempt: $label ${val}% > ${ceiling}%" >&2
        attempt=$((attempt + 1))
    done
    echo "bench gate: $label exceeded ${ceiling}% on all $GATE_ATTEMPTS attempts" >&2
    exit 1
}

# gate_count <benchmark> <side> <ceiling> <label>: from the benchmark
# output in $out, require <side>_allocs/visit minus bare_allocs/visit
# <= ceiling.
gate_count() {
    bench=$1; side=$2; ceiling=$3; label=$4
    bare=$(metric_of "$out" "$bench" bare_allocs/visit)
    with=$(metric_of "$out" "$bench" "${side}_allocs/visit")
    if [ -z "$bare" ] || [ -z "$with" ]; then
        echo "bench gate: allocs/visit metrics not found in $bench output" >&2
        exit 1
    fi
    delta=$(awk -v w="$with" -v b="$bare" 'BEGIN { printf "%.3f", w - b }')
    if ! awk -v d="$delta" -v max="$ceiling" 'BEGIN { exit !(d <= max) }'; then
        echo "bench gate: $label costs $delta allocs/visit above the bare crawl, ceiling $ceiling" >&2
        exit 1
    fi
    echo "bench gate: $label $delta allocs/visit above bare <= $ceiling"
}

gate_ratio BenchmarkCrawl_MetricsOverhead overhead_pct "$MAX_METRICS_OVERHEAD_PCT" \
    "full-report metrics overhead"
gate_count BenchmarkCrawl_MetricsOverhead metrics "$MAX_METRICS_ALLOCS_DELTA" \
    "full-report metrics"

# Observability gate: run telemetry plus a sampled trace plan must cost
# the crawl at most MAX_OBS_OVERHEAD_PCT of bare time. The untraced
# majority of visits rides the guarded-emission pattern (hbvet:
# obsguard), so a regression here means an unguarded recording call or
# a hot harvest path grew.
gate_ratio BenchmarkCrawl_ObsOverhead overhead_pct "$MAX_OBS_OVERHEAD_PCT" \
    "observability overhead"
gate_count BenchmarkCrawl_ObsOverhead obs "$MAX_OBS_ALLOCS_DELTA" \
    "observability"

# Shared-world sweep gate: a variant's marginal cost (crawl over the
# warm shared world) must stay below the fresh-run cost (world
# generation + cold crawl). A sweep that regresses into regenerating or
# re-warming per-variant state lands at ~100% or above.
gate_ratio BenchmarkSweep_WorldReuse variant_pct "$MAX_SWEEP_VARIANT_PCT" \
    "sweep variant marginal cost"
