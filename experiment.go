package headerbid

import (
	"context"
	"fmt"
	"time"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// An Experiment is the streaming crawl pipeline: a world (given or
// generated), a crawl policy, and two kinds of pluggable outputs —
// ordered Sinks, fed each completed visit in deterministic crawl order,
// and sharded Metrics, folded on the worker goroutines off the ordered
// emit path and merged deterministically when the run ends. Nothing is
// retained by the pipeline itself — memory stays flat no matter how many
// sites are crawled, and Run honors context cancellation mid-crawl.
//
//	exp := headerbid.NewExperiment(
//		headerbid.WithSites(35000),
//		headerbid.WithSeed(1),
//		headerbid.WithSink(jsonl),
//		headerbid.WithMetrics(headerbid.NewFigureReport()),
//	)
//	res, err := exp.Run(ctx)
//
// Configure with functional options; zero options give a paper-defaults
// 1000-site, seed-1, one-day crawl.
type Experiment struct {
	world *World
	sites int
	seed  int64

	shard sitegen.Shard

	days        int
	workers     int
	firstDay    int
	firstDaySet bool
	filter      func(*Site) bool
	overlay     Overlay

	trace     *TracePlan
	telemetry *Telemetry

	sinks   []Sink
	metrics []Metric
}

// ExperimentOption configures an Experiment.
type ExperimentOption func(*Experiment)

// WithWorld crawls an existing world instead of generating one.
func WithWorld(w *World) ExperimentOption {
	return func(e *Experiment) { e.world = w }
}

// WithSites sets the generated world's site count (default 1000).
func WithSites(n int) ExperimentOption {
	return func(e *Experiment) { e.sites = n }
}

// WithSeed seeds both world generation and the crawl's per-visit
// randomness (default 1). Identical seeds reproduce identical streams.
func WithSeed(seed int64) ExperimentOption {
	return func(e *Experiment) { e.seed = seed }
}

// WithShard restricts the run to slice index of a count-way split of
// the world — the distributed-crawl partition. Site→shard assignment is
// a pure function of (world seed, site rank, count), so the n shard
// runs of one seed partition the full crawl exactly: every site is
// visited by exactly one shard, with the same per-visit randomness it
// would see in a single-process run. For a generated world the
// experiment materializes only the member sites (~1/count of the
// generation cost); a world supplied via WithWorld is filtered at crawl
// time instead. Combine each shard's metric state with
// snapshot.Fold / cmd/hbmerge to recover the single-process result.
func WithShard(index, count int) ExperimentOption {
	return func(e *Experiment) { e.shard = sitegen.Shard{Index: index, Count: count} }
}

// WithDays sets how many days each HB site is revisited (the paper
// crawled daily for 34 days; default 1).
func WithDays(n int) ExperimentOption {
	return func(e *Experiment) { e.days = n }
}

// WithWorkers bounds crawl parallelism (default NumCPU).
func WithWorkers(n int) ExperimentOption {
	return func(e *Experiment) { e.workers = n }
}

// WithFirstDay offsets the crawl calendar: the crawl covers days
// first..first+days-1 (default 0). Useful for revisiting a site on a
// specific day with the day's random draws.
func WithFirstDay(first int) ExperimentOption {
	return func(e *Experiment) { e.firstDay = first; e.firstDaySet = true }
}

// WithSiteFilter restricts the crawl to sites f returns true for —
// single-site, single-facet or rank-sliced experiments without
// regenerating the world.
func WithSiteFilter(f func(*Site) bool) ExperimentOption {
	return func(e *Experiment) { e.filter = f }
}

// WithOverlay applies a scenario intervention (wrapper-timeout
// override, partner-pool cap, cookie-sync suppression, network
// profile) to every visit of this single run — the one-variant
// counterpart of a Sweep axis. The overlay is applied at visit time on
// private copies; the world is never mutated, so the same world can be
// shared with other runs. A zero overlay changes nothing.
func WithOverlay(ov Overlay) ExperimentOption {
	return func(e *Experiment) { e.overlay = ov }
}

// WithSink attaches sinks; each completed visit is pushed to every sink
// in attachment order before the next visit is delivered. Sinks see the
// deterministic crawl order but serialize on the emit path — attach a
// Metric instead when order doesn't matter and throughput does.
func WithSink(sinks ...Sink) ExperimentOption {
	return func(e *Experiment) { e.sinks = append(e.sinks, sinks...) }
}

// WithMetrics attaches streaming metrics to the run. Each worker
// goroutine folds its visits into a private shard (created with
// NewShard) off the order-preserving emit path, so metric accumulation
// never throttles ordered sinks; when the run ends, shards are merged
// back into the attached metric instances in worker order. Metric
// results are independent of worker count and scheduling by the Metric
// contract (order-insensitive Add, commutative/associative Merge).
//
// After Run returns, the attached instances hold the merged run totals.
// On cancellation or sink error, metrics hold whatever visits completed
// — a superset of the visits ordered sinks saw.
func WithMetrics(ms ...Metric) ExperimentOption {
	return func(e *Experiment) { e.metrics = append(e.metrics, ms...) }
}

// WithTrace records virtual-clock spans for the visits the plan selects
// and delivers them on Visit.Trace (attach a TraceSink to write a
// Perfetto-loadable file). Selection is made against each day's
// rank-ordered job list, so traced visits — and the trace bytes — are
// identical across worker counts. Untraced visits pay nothing: the
// recorder is nil and every emission site is guarded.
func WithTrace(plan TracePlan) ExperimentOption {
	return func(e *Experiment) { e.trace = &plan }
}

// WithTelemetry feeds run-level operational counters (visits, pool
// reuse, retries, virtual wire volume) into reg as the crawl runs,
// harvested once per completed visit on the worker goroutines. reg is
// safe to read concurrently (reg.Totals()) — the live data source for
// progress displays and the -obs debug endpoint.
func WithTelemetry(reg *Telemetry) ExperimentOption {
	return func(e *Experiment) { e.telemetry = reg }
}

// WithProgress is shorthand for WithSink(NewProgressSink(fn)).
func WithProgress(fn func(done, total int)) ExperimentOption {
	return func(e *Experiment) { e.sinks = append(e.sinks, NewProgressSink(fn)) }
}

// NewExperiment assembles a streaming crawl pipeline from options.
func NewExperiment(opts ...ExperimentOption) *Experiment {
	e := &Experiment{seed: 1}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Metrics is the bag of merged metric accumulators a run produced, in
// attachment order.
type Metrics struct {
	ms []Metric
}

// Len reports how many metrics were attached.
func (m Metrics) Len() int { return len(m.ms) }

// Results is what every run computes incrementally regardless of
// attached sinks: the Table-1 roll-up, crawl health counters and the
// latency CDF — none of which require retaining records — plus the bag
// of user-attached metrics.
type Results struct {
	// Summary is the Table 1 roll-up over the streamed records.
	Summary Summary
	// Stats counts visits/loads/timeouts/HB detections.
	Stats CrawlStats
	// Latency is the Figure-12 total-HB-latency CDF.
	Latency LatencyStats
	// Metrics holds the metrics attached with WithMetrics, merged across
	// worker shards (the same instances the caller attached).
	Metrics Metrics
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// CrawlStats counts crawl health: visits, loads, timeouts, HB sites.
type CrawlStats = crawler.Stats

// LatencyStats is the Figure-12 latency CDF with the paper's markers.
type LatencyStats = analysis.LatencyCDFResult

// statsMetric folds crawl-health counters as a sharded metric.
type statsMetric struct {
	s CrawlStats
}

func (m *statsMetric) Name() string                { return "crawl_stats" }
func (m *statsMetric) Add(r *dataset.SiteRecord)   { m.s.Add(r) }
func (m *statsMetric) NewShard() analysis.Metric   { return &statsMetric{} }
func (m *statsMetric) Merge(other analysis.Metric) { m.s.Merge(other.(*statsMetric).s) }
func (m *statsMetric) Snapshot() any               { return m.s }

// World resolves the world this experiment crawls (generating it if
// needed); repeated calls return the same world.
func (e *Experiment) World() *World {
	if e.world == nil {
		cfg := sitegen.DefaultConfig(e.seed)
		if e.sites > 0 {
			cfg.NumSites = e.sites
		}
		sh := e.shard
		if sh.IsZero() {
			sh = sitegen.Shard{Index: 0, Count: 1}
		}
		e.world = sitegen.GenerateShard(cfg, sh)
	}
	return e.world
}

// crawlOptions resolves the effective crawl policy.
func (e *Experiment) crawlOptions() crawler.Options {
	opts := crawler.DefaultOptions(e.seed)
	if e.days > 0 {
		opts.Days = e.days
	}
	if e.workers > 0 {
		opts.Workers = e.workers
	}
	if e.firstDaySet {
		opts.FirstDay = e.firstDay
	}
	if e.filter != nil {
		opts.Filter = e.filter
	}
	if !e.overlay.IsZero() {
		ov := e.overlay
		opts.Overlay = &ov
	}
	if e.trace != nil {
		opts.Trace = e.trace
	}
	if e.telemetry != nil {
		opts.Telemetry = e.telemetry
	}
	return opts
}

// Run executes the crawl, streaming each visit to the attached sinks the
// moment it completes and folding it into per-worker metric shards as it
// is produced. It returns as soon as ctx is cancelled (with ctx.Err())
// or a sink fails (with that sink's error); sinks are always closed
// exactly once and metrics are always merged, even on early exit.
func (e *Experiment) Run(ctx context.Context) (Results, error) {
	//hbvet:allow detwall Results.Elapsed is wall-clock run metadata for operators; simulated time comes from the per-visit clock.Scheduler
	start := time.Now()
	if !e.shard.IsZero() && !e.shard.Valid() {
		// The run never starts, but the sinks were handed over: close
		// them so file sinks release their handles. The shard error is
		// the one to report.
		_ = e.closeSinks()
		return Results{}, fmt.Errorf("headerbid: invalid shard %d/%d", e.shard.Index, e.shard.Count)
	}
	w := e.World()
	opts := e.crawlOptions()
	if sh := e.shard; sh.Count > 1 && w.Shard != sh {
		// The world came in via WithWorld already materialized (or as a
		// different slice); restrict the crawl to this shard's members.
		// Membership is rank-hashed off the world seed, so the filter
		// selects exactly the sites GenerateShard would have produced.
		seed := w.Cfg.Seed
		prev := opts.Filter
		opts.Filter = func(s *Site) bool {
			if sitegen.ShardOf(seed, s.Rank, sh.Count) != sh.Index {
				return false
			}
			return prev == nil || prev(s)
		}
	}
	// Pin the worker count so the shard array and the crawler agree on
	// the fold-shard space (the crawler owns the defaulting rule).
	opts.Workers = opts.ResolvedWorkers()

	// Built-in metrics (every run computes Results from them) ride the
	// same sharded fold path as the user-attached ones.
	sum := analysis.NewSummary()
	lat := analysis.NewLatencyAccumulator()
	st := &statsMetric{}
	all := []Metric{sum, lat, st}
	for _, m := range e.metrics {
		all = append(all, m)
	}

	shards := make([][]Metric, opts.Workers)
	for i := range shards {
		shards[i] = make([]Metric, len(all))
		for j, m := range all {
			shards[i][j] = m.NewShard()
		}
	}
	fold := func(shard int, r *dataset.SiteRecord) {
		for _, m := range shards[shard] {
			m.Add(r)
		}
	}

	runErr := crawler.CrawlStreamSharded(ctx, w, opts, func(v Visit) error {
		for i, s := range e.sinks {
			if err := s.Consume(v); err != nil {
				return fmt.Errorf("sink %d (%T): %w", i, s, err)
			}
		}
		return nil
	}, fold)

	// Merge worker shards back into the prototypes in worker order; the
	// Metric contract makes the outcome independent of which worker saw
	// which visit.
	for i := range shards {
		for j, m := range all {
			m.Merge(shards[i][j])
		}
	}

	closeErr := e.closeSinks()

	res := Results{
		Summary: sum.Summary(),
		Stats:   st.s,
		Latency: lat.Result(),
		Metrics: Metrics{ms: e.metrics},
		Elapsed: time.Since(start), //hbvet:allow detwall wall-clock elapsed reported to operators, never part of dataset bytes
	}
	if runErr != nil {
		return res, runErr
	}
	return res, closeErr
}

// closeSinks closes every attached sink once, in attachment order, and
// returns the first error.
func (e *Experiment) closeSinks() error {
	var closeErr error
	for i, s := range e.sinks {
		if err := s.Close(); err != nil && closeErr == nil {
			closeErr = fmt.Errorf("closing sink %d (%T): %w", i, s, err)
		}
	}
	return closeErr
}
