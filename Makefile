GO ?= go
GOFMT ?= gofmt

# Committed allocs/visit ceiling for the CI bench gate (see PERF.md for
# the measured numbers it is derived from): the gate measures 7.59
# since BenchmarkCrawl_EndToEnd crawls its world once untimed before it
# measures, so the world's one-time work no longer lands in the reading
# and the reading no longer depends on -benchtime (7.56-7.61 at 1, 3, 5
# and 20 iterations; 9.63 at the gate's 3 before); the ceiling keeps
# about 10% headroom over that.
ALLOCS_CEILING ?= 8.4

# Max throughput the metrics-attached crawl may give up vs the bare
# crawl, in percent (the streaming-metrics design goal is <=10%).
METRICS_OVERHEAD_PCT ?= 10

# Max throughput the observability-attached crawl (run telemetry on
# every visit + a sampled trace plan) may give up vs the bare crawl, in
# percent. The guarded-emission pattern keeps untraced visits free, so
# this holds well under the ceiling.
OBS_OVERHEAD_PCT ?= 5

# Max allocs/visit the same two attached crawls may add above the bare
# one (1,200 sites, seed 7, warm). Measured +1.22 for the figure report
# and +0.09-0.10 for telemetry and the trace plan; the ceilings keep
# about 15% headroom (more for the small observability count). Counts
# do not move with host noise, so these hold where the time ratios
# above cannot tell a regression from a busy host.
METRICS_ALLOCS_DELTA ?= 1.4
OBS_ALLOCS_DELTA ?= 0.2

# Max marginal cost of one sweep variant vs a fresh run (world gen +
# cold crawl), in percent: shared-world sweeps must never regress into
# per-variant world regeneration (that lands at ~100% or above).
SWEEP_VARIANT_PCT ?= 95

# Staticcheck release pinned for reproducible lint runs: CI installs
# exactly this via lint-tools, and so does a developer box. Bump it
# deliberately, in its own commit.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race allocs vet lint lint-tools bench bench-smoke bench-gate bench-test bench-all benchstat baseline profile sweep chaos-smoke fuzz-smoke shard-smoke trace-smoke

# Per-target budget for the CI fuzz smoke over the decoder fuzz targets
# (go test -fuzz accepts exactly one target per run).
FUZZTIME ?= 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation ceilings, without -race: the race runtime perturbs
# allocation counts, so the warm-visit, faulted-visit and codec ceilings
# (TestWarmHBVisitAllocs, TestFaultedVisitAllocParity,
# TestEncodedLenAllocs, ...) skip under 'make race'. Every test whose
# name says Alloc runs here.
allocs:
	$(GO) test -run Alloc ./...

vet:
	$(GO) vet ./...

# The static-analysis gate, identical for CI and developers: go vet,
# then gofmt (any file it would reformat fails the gate), then hbvet
# (the repo's own analyzers — determinism wall, hot-path allocations,
# metric laws, ctx hygiene, recover scope, guarded trace emission, dead
# exports in the root facade and internal/) over
# every package in the module, cmd/ and examples/ included, then
# staticcheck when installed (CI pins it through lint-tools; a bare
# container still gets vet+gofmt+hbvet, which need nothing beyond the Go
# toolchain).
lint: vet
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need 'gofmt -w':"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/hbvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; run 'make lint-tools' for the pinned version" ; \
	fi

# Install the pinned lint toolchain (needs network access once; CI
# restores it from the module cache afterwards).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# The crawl-throughput gate (PERF.md): sites/sec, ns/visit, allocs/visit
# — bare and with the full figure report attached via the metrics API.
bench:
	$(GO) test -run '^$$' -bench Crawl_EndToEnd -benchtime 5x -benchmem .

# One-iteration smoke run of every root benchmark (crawl gates, paper
# figures, ablations, sweeps), as executed in CI: fails loudly if the
# crawl path or any benchmark breaks, finishes in seconds.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# CI gate: bench smoke plus the committed ceilings — allocs/visit, the
# metrics-attached-crawl overhead (full figure report must cost <=
# METRICS_OVERHEAD_PCT of bare-crawl sites/sec), the attached crawls'
# allocs/visit above the bare one (METRICS_ALLOCS_DELTA,
# OBS_ALLOCS_DELTA) and the sweep
# world-reuse ratio (variant marginal cost <= SWEEP_VARIANT_PCT of a
# fresh run). The benchmark crawls fault-free with the fault hooks and
# the panic quarantine compiled in, so this gate also asserts chaos
# support costs the clean hot path nothing.
bench-gate:
	MAX_ALLOCS=$(ALLOCS_CEILING) MAX_METRICS_OVERHEAD_PCT=$(METRICS_OVERHEAD_PCT) \
		MAX_OBS_OVERHEAD_PCT=$(OBS_OVERHEAD_PCT) \
		MAX_METRICS_ALLOCS_DELTA=$(METRICS_ALLOCS_DELTA) MAX_OBS_ALLOCS_DELTA=$(OBS_ALLOCS_DELTA) \
		MAX_SWEEP_VARIANT_PCT=$(SWEEP_VARIANT_PCT) sh scripts/bench_gate.sh

# Short fuzz run over the decoders of untrusted bytes: the rtb codec's
# two targets and the JSONL record decoder's each differentially check
# their fast path against encoding/json (struct equality, error parity;
# the rtb targets also check the re-encode fixed point), the shard
# file decoder's checks refuse-not-panic, render-without-hanging and
# the re-marshal fixed point, the HTML scanner's checks never-panic, substrings of the
# input and, on ASCII, equality with its reference implementation, the
# URL query target checks ParseQuery and WithQuery against net/url, the
# URL host target checks Host against net/url, and the wire reader's
# checks never-panic, allocation linear in the input and the same reads
# from both source kinds. Three targets hold encoders and a
# post-auction kernel to their references: the OpenRTB encoder must
# write json.Marshal's bytes (FuzzEncodeBid) and the JSONL record
# encoder json.Encoder's (or each fail where it fails), and the
# ad-server body scanner must read the lines, fields and fail flags
# strings.Split gives. The
# committed corpora under internal/rtb/testdata/fuzz/,
# internal/dataset/testdata/fuzz/, internal/snapshot/testdata/fuzz/,
# internal/htmlmeta/testdata/fuzz/, internal/urlkit/testdata/fuzz/,
# internal/wire/testdata/fuzz/ and internal/hb/testdata/fuzz/ also
# replay as plain unit tests on every 'make test'. Minimizing a new
# input is capped at 1 s: under the default 60 s a worker can spend
# the whole run minimizing one large input (a 19.5 kB shard file),
# leaving the target at 0 execs/s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBidRequest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/rtb
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBidResponse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/rtb
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeBid$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/rtb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeRecord$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalShard$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/htmlmeta
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/urlkit
	$(GO) test -run '^$$' -fuzz '^FuzzHost$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/urlkit
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSlotLines$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/hb

# Counterfactual-sweep smoke: a small timeout+partners+network sweep
# over one shared world, comparison rendered to stdout.
sweep:
	$(GO) run ./cmd/hbsweep -sites 600 -timeouts 500,3000,10000 -partners 1,5 -profiles fiber,3g -q

# Chaos smoke (DESIGN.md §2.3): a tiny fault-ladder + chaos-shape sweep;
# a sweep whose fault names an unknown partner must fail, naming it;
# then the determinism and degradation proofs — fault-variant bytes are
# worker-count-invariant, the zero-fault baseline matches a plain crawl,
# pooled networks replay fault streams exactly, in-visit panics
# quarantine instead of killing workers, a faulted visit allocates what
# a healthy one does, and the crawl's shared fault table is copied, not
# written, by per-visit hooks.
chaos-smoke:
	$(GO) run ./cmd/hbsweep -sites 400 -timeouts '' -partners '' -profiles '' -faults 0.2 -chaos -q
	@out=$$($(GO) run ./cmd/hbsweep -sites 100 -timeouts '' -partners '' -profiles '' \
		-faults 0.2 -fault-partner nosuchpartner -q 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -eq 0 ] || ! echo "$$out" | grep -q '"nosuchpartner"'; then \
		echo "chaos-smoke: hbsweep must exit non-zero naming the unknown fault target"; exit 1; \
	fi
	$(GO) test -run 'Chaos|Quarantine|FaultSweep|FaultStream|CorruptBid|FaultTable|FaultedVisit|UnknownFault' \
		./internal/simnet ./internal/crawler ./internal/scenario

# Distributed-crawl smoke (DESIGN.md §2.4): a 3-shard crawl folded with
# hbmerge must render the byte-identical single-process figure report,
# and shard-world generation must show the ~1/n lazy-partition cost.
shard-smoke:
	sh scripts/shard_smoke.sh

# Observability smoke (DESIGN.md §2.5): a traced crawl through the real
# hbcrawl binary must be worker-count invariant (JSONL and Perfetto
# trace bytes both), must not perturb the untraced crawl's output, and
# the trace must pass the span-nesting validator.
trace-smoke:
	sh scripts/trace_smoke.sh

# The benchmark module (bench/, its own Go module, so the root 'go test
# ./...' skips it): vet, its tests (parser, the layer-map meta-test that
# fails when an internal/ package has no ledger row, host-speed
# readings, a tiny-size smoke run of every workload) and hbvet.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run headerbid/cmd/hbvet ./...

# Every paper-figure benchmark.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# Compare the current crawl benchmark against the committed baseline
# (perf/bench.baseline.txt). Uses benchstat when installed, otherwise the
# bundled awk fallback.
benchstat:
	$(GO) test -run '^$$' -bench Crawl_EndToEnd -benchtime 5x -benchmem . | tee perf/bench.latest.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat perf/bench.baseline.txt perf/bench.latest.txt ; \
	else \
		sh scripts/benchdiff.sh perf/bench.baseline.txt perf/bench.latest.txt ; \
	fi

# Refresh the committed baseline from the current tree (run on the
# reference box after an intentional perf change, then commit).
baseline:
	$(GO) test -run '^$$' -bench Crawl_EndToEnd -benchtime 5x -benchmem . | tee perf/bench.baseline.txt

# Regenerate the PERF.md profiles.
profile:
	$(GO) test -run '^$$' -bench Crawl_EndToEnd -benchtime 5x \
		-cpuprofile cpu.pb.gz -memprofile mem.pb.gz -o bench.test .
	$(GO) tool pprof -top -nodecount=10 bench.test cpu.pb.gz
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=10 bench.test mem.pb.gz
