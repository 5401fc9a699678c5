package headerbid

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/overlay"
	"headerbid/internal/scenario"
	"headerbid/internal/sitegen"
)

// Scenario vocabulary, re-exported from internal/scenario and
// internal/overlay so external consumers can build sweeps and single-run
// interventions (internal packages are unimportable outside the module).
type (
	// Overlay is one variant's intervention set, applied at visit time
	// without mutating the shared world (zero value = no intervention).
	// Attach one to a single run with WithOverlay, or to a sweep via an
	// Axis.
	Overlay = overlay.Overlay
	// NetworkProfile is a named transport-latency model (base RTT +
	// jitter) an Overlay can apply per visit.
	NetworkProfile = overlay.NetworkProfile
	// Axis is one intervention dimension: a name plus its variants.
	Axis = scenario.Axis
	// SweepComparison is a sweep's delta report: baseline plus per-axis
	// variant results, renderable as delta tables.
	SweepComparison = scenario.Comparison
)

// TimeoutAxis sweeps the wrapper deadline (ms); empty input uses the
// default ladder (500, 1000, 3000, 10000).
func TimeoutAxis(timeoutsMS ...int) Axis { return scenario.TimeoutAxis(timeoutsMS...) }

// PartnerAxis sweeps partner-pool ablation caps; empty input uses the
// default ladder (1, 3, 5, 10).
func PartnerAxis(caps ...int) Axis { return scenario.PartnerAxis(caps...) }

// NetworkAxis sweeps transport profiles; empty input uses every
// built-in profile (fiber, cable, 4g, 3g).
func NetworkAxis(profiles ...NetworkProfile) Axis { return scenario.NetworkAxis(profiles...) }

// SyncAxis ablates cookie syncing (one sync-off variant vs the
// baseline's sync-on control).
func SyncAxis() Axis { return scenario.SyncAxis() }

// WrapperAxis repairs misconfigured no-wait wrappers.
func WrapperAxis() Axis { return scenario.WrapperAxis() }

// FaultAxis sweeps ecosystem-wide transport failure of every partner's
// bid exchange; empty input uses the default rate ladder (5%, 20%, 50%).
func FaultAxis(failRates ...float64) Axis { return scenario.FaultAxis(failRates...) }

// PartnerFaultAxis sweeps transport failure of one demand partner (by
// registry slug), leaving the rest healthy; empty rates use the default
// ladder.
func PartnerFaultAxis(slug string, failRates ...float64) Axis {
	return scenario.PartnerFaultAxis(slug, failRates...)
}

// ChaosAxis enumerates the qualitative failure shapes (outage, flapping,
// slow-loris, mid-body resets, truncated and garbled bodies, error
// ramps) at a fixed moderate severity, one variant each.
func ChaosAxis() Axis { return scenario.ChaosAxis() }

// NetworkProfileByName looks a built-in network profile up by name
// ("fiber", "cable", "4g", "3g").
func NetworkProfileByName(name string) (NetworkProfile, bool) {
	return overlay.ProfileByName(name)
}

// SweepVariantCount reports how many crawls a sweep over the axes
// schedules, including the implicit baseline — the multiplier for
// progress and cost estimates (visits ≈ count × sites on day 0).
func SweepVariantCount(axes ...Axis) int { return scenario.VariantCount(axes) }

// SweepVisit is one completed visit of one sweep variant, as delivered
// to sweep sinks.
type SweepVisit struct {
	// Axis and Variant name the run this visit belongs to; the baseline
	// control uses "baseline" for both.
	Axis    string
	Variant string
	Visit   Visit
}

// A SweepSink consumes every variant's visit stream from a running
// Sweep. Within one variant, visits arrive in deterministic crawl
// order; visits of different variants interleave (the sweep serializes
// all Consume calls, so implementations need no locking). Consume
// returning a non-nil error aborts the sweep; Close is called exactly
// once when the sweep ends.
type SweepSink interface {
	Consume(v SweepVisit) error
	Close() error
}

// SweepSinkFunc adapts a plain function to a SweepSink with a no-op
// Close.
type SweepSinkFunc func(v SweepVisit) error

// Consume calls f.
func (f SweepSinkFunc) Consume(v SweepVisit) error { return f(v) }

// Close is a no-op.
func (f SweepSinkFunc) Close() error { return nil }

// VariantJSONLSink streams each variant's records to its own JSONL
// dataset file under a directory — one `<axis>_<variant>.jsonl` per
// variant, each byte-identical to what a plain Experiment with that
// variant's overlay would have written.
type VariantJSONLSink struct {
	dir   string
	files map[string]*JSONLSink
	owner map[string]string // filename stem -> axis/variant that claimed it
}

// NewVariantJSONLSink creates dir (if needed) and returns a sink
// writing one JSONL file per sweep variant into it.
func NewVariantJSONLSink(dir string) (*VariantJSONLSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("headerbid: sweep sink: %w", err)
	}
	return &VariantJSONLSink{
		dir:   dir,
		files: make(map[string]*JSONLSink),
		owner: make(map[string]string),
	}, nil
}

// variantFileName sanitizes an axis/variant pair into a filename stem.
func variantFileName(axis, variant string) string {
	mangle := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
			default:
				b[i] = '_'
			}
		}
		return string(b)
	}
	if axis == variant {
		return mangle(axis)
	}
	return mangle(axis) + "_" + mangle(variant)
}

// Consume routes the visit to its variant's file, creating it on first
// use. Two distinct variants whose names mangle to the same filename
// stem (custom names differing only in special characters) are an
// error, never a silent interleave into one file.
func (s *VariantJSONLSink) Consume(v SweepVisit) error {
	key := variantFileName(v.Axis, v.Variant)
	id := v.Axis + "/" + v.Variant
	if prev, ok := s.owner[key]; !ok {
		s.owner[key] = id
	} else if prev != id {
		return fmt.Errorf("headerbid: sweep variants %q and %q both map to dataset file %s.jsonl; rename one", prev, id, key)
	}
	f, ok := s.files[key]
	if !ok {
		var err error
		f, err = NewJSONLFileSink(filepath.Join(s.dir, key+".jsonl"))
		if err != nil {
			return err
		}
		s.files[key] = f
	}
	return f.Consume(v.Visit)
}

// Close flushes and closes every variant file, reporting the first
// error.
func (s *VariantJSONLSink) Close() error {
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// A Sweep runs N parameterized variants of a crawl — an implicit
// zero-overlay baseline plus every variant of every attached axis —
// over one shared, immutably generated world, and folds each variant
// into a SweepComparison of causal deltas. The world is generated (and
// its caches warmed) once; each variant's marginal cost is a crawl, not
// a world build. Variants run concurrently, and the comparison is
// deterministic in (seed, axes) regardless of worker count or variant
// scheduling.
//
//	cmp, err := headerbid.NewSweep(
//		headerbid.WithSweepSites(5000),
//		headerbid.WithSweepSeed(1),
//		headerbid.WithAxes(headerbid.TimeoutAxis(), headerbid.PartnerAxis(), headerbid.NetworkAxis()),
//	).Run(ctx)
//	cmp.Render(os.Stdout)
type Sweep struct {
	world   *World
	sites   int
	seed    int64
	seedSet bool

	crawlCfg    *CrawlConfig
	days        int
	workers     int
	concurrency int

	axes    []Axis
	sinks   []SweepSink
	metrics func() []Metric
}

// SweepOption configures a Sweep.
type SweepOption func(*Sweep)

// WithSweepWorld sweeps an existing world instead of generating one.
//
//hbvet:allow deadexport used by bench/ (module hbbench)
func WithSweepWorld(w *World) SweepOption {
	return func(s *Sweep) { s.world = w }
}

// WithSweepSites sets the generated world's site count (default 1000).
func WithSweepSites(n int) SweepOption {
	return func(s *Sweep) { s.sites = n }
}

// WithSweepSeed seeds world generation and every variant's per-visit
// randomness (default 1), exactly as WithSeed does for an Experiment —
// the base variant reproduces that experiment byte-for-byte.
func WithSweepSeed(seed int64) SweepOption {
	return func(s *Sweep) { s.seed = seed; s.seedSet = true }
}

// WithSweepCrawlConfig replaces the paper-default crawl policy for
// every variant; its Overlay field must be nil (interventions belong in
// axes).
//
//hbvet:allow deadexport used by bench/ (module hbbench)
func WithSweepCrawlConfig(cfg CrawlConfig) SweepOption {
	return func(s *Sweep) { s.crawlCfg = &cfg }
}

// WithSweepDays sets how many days each variant revisits HB sites
// (default 1).
func WithSweepDays(n int) SweepOption {
	return func(s *Sweep) { s.days = n }
}

// WithSweepWorkers bounds each variant's crawl parallelism (default
// NumCPU).
func WithSweepWorkers(n int) SweepOption {
	return func(s *Sweep) { s.workers = n }
}

// WithVariantConcurrency bounds how many variants run at once (default
// 2). Total goroutine parallelism is variants × workers.
func WithVariantConcurrency(n int) SweepOption {
	return func(s *Sweep) { s.concurrency = n }
}

// WithAxes attaches intervention axes, in comparison order. A sweep
// with no axes runs the three defaults: timeout, partner ablation and
// network profiles.
func WithAxes(axes ...Axis) SweepOption {
	return func(s *Sweep) { s.axes = append(s.axes, axes...) }
}

// WithSweepSink attaches sweep-aware sinks; every variant's visits are
// delivered tagged with their axis and variant names, serialized across
// variants.
func WithSweepSink(sinks ...SweepSink) SweepOption {
	return func(s *Sweep) { s.sinks = append(s.sinks, sinks...) }
}

// WithVariantMetrics attaches extra per-variant metrics: factory is
// called once per variant (including the baseline) and the merged
// instances land in that variant's VariantResult.Extra, in factory
// order.
//
//hbvet:allow deadexport used by bench/ (module hbbench)
func WithVariantMetrics(factory func() []Metric) SweepOption {
	return func(s *Sweep) { s.metrics = factory }
}

// NewSweep assembles a counterfactual sweep from options.
func NewSweep(opts ...SweepOption) *Sweep {
	s := &Sweep{seed: 1}
	for _, o := range opts {
		o(s)
	}
	if len(s.axes) == 0 {
		s.axes = scenario.DefaultAxes()
	}
	return s
}

// World resolves the shared world (generating it if needed); repeated
// calls return the same world.
func (s *Sweep) World() *World {
	if s.world == nil {
		cfg := sitegen.DefaultConfig(s.seed)
		if s.sites > 0 {
			cfg.NumSites = s.sites
		}
		s.world = sitegen.Generate(cfg)
	}
	return s.world
}

// crawlOptions resolves the effective per-variant crawl policy.
func (s *Sweep) crawlOptions() crawler.Options {
	opts := crawler.DefaultOptions(s.seed)
	if s.crawlCfg != nil {
		opts = *s.crawlCfg
		if s.seedSet {
			opts.Seed = s.seed
		}
	}
	if s.days > 0 {
		opts.Days = s.days
	}
	if s.workers > 0 {
		opts.Workers = s.workers
	}
	return opts
}

// Run executes the baseline and every axis variant over the shared
// world and returns the comparison. Sinks are always closed exactly
// once; the first sink error or ctx cancellation aborts the remaining
// variants.
func (s *Sweep) Run(ctx context.Context) (*SweepComparison, error) {
	var metrics func() []analysis.Metric
	if s.metrics != nil {
		metrics = func() []analysis.Metric { return s.metrics() }
	}

	sw := &scenario.Sweep{
		World:       s.World(),
		Opts:        s.crawlOptions(),
		Axes:        s.axes,
		Concurrency: s.concurrency,
		Metrics:     metrics,
	}
	if len(s.sinks) > 0 {
		// Variants emit concurrently; one mutex serializes delivery so
		// sweep sinks never need their own locking.
		var mu sync.Mutex
		sw.Emit = func(axis, variant string, v crawler.Visit) error {
			mu.Lock()
			defer mu.Unlock()
			sv := SweepVisit{Axis: axis, Variant: variant, Visit: v}
			for i, sink := range s.sinks {
				if err := sink.Consume(sv); err != nil {
					return fmt.Errorf("sweep sink %d (%T): %w", i, sink, err)
				}
			}
			return nil
		}
	}

	cmp, runErr := sw.Run(ctx)

	var closeErr error
	for i, sink := range s.sinks {
		if err := sink.Close(); err != nil && closeErr == nil {
			closeErr = fmt.Errorf("closing sweep sink %d (%T): %w", i, sink, err)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return cmp, closeErr
}
