// Package headerbid is a full reproduction of "No More Chasing Waterfalls:
// A Measurement Study of the Header Bidding Ad-Ecosystem" (IMC 2019): the
// HBDetector transparency tool, the protocol emulations it observes
// (prebid.js-style client wrappers, hosted server-side auctions, hybrid
// deployments, the waterfall baseline), a calibrated synthetic web of
// 35,000 publishers to measure, a crawler, and analyzers that regenerate
// every table and figure of the paper.
//
// Quick start — the streaming Experiment pipeline:
//
//	exp := headerbid.NewExperiment(headerbid.WithSites(1000), headerbid.WithSeed(1))
//	res, err := exp.Run(context.Background())
//	fmt.Printf("HB adoption: %.2f%%\n", 100*res.Summary.AdoptionRate())
//
// Experiments stream each completed visit to pluggable Sinks (JSONL
// writing, progress, custom SinkFunc) the moment the visit finishes, so
// crawls of any size run in flat memory and stop promptly when the
// context is cancelled.
//
// Analysis is the streaming Metrics API: every table and figure of the
// paper is a Metric — an incremental accumulator with Add/Merge — that
// can be attached to a live run with WithMetrics (folded per worker
// shard, off the ordered emit path, merged deterministically at run end)
// or fed from a JSONL stream. NewFigureReport bundles all of them into
// the full figure report:
//
//	fr := headerbid.NewFigureReport()
//	exp := headerbid.NewExperiment(headerbid.WithSites(35000), headerbid.WithMetrics(fr))
//	if _, err := exp.Run(ctx); err == nil {
//		fr.Render(os.Stdout)
//	}
//
// Beyond reproducing the paper's observational findings, the scenario
// layer reruns the same world under controlled interventions: a Sweep
// crawls N variants — wrapper-timeout ladder, partner-pool ablation,
// network profiles, cookie-sync ablation — over one shared, immutably
// generated world and reports the causal deltas:
//
//	cmp, err := headerbid.NewSweep(
//		headerbid.WithSweepSites(5000),
//		headerbid.WithAxes(headerbid.TimeoutAxis(), headerbid.PartnerAxis(), headerbid.NetworkAxis()),
//	).Run(ctx)
//	cmp.Render(os.Stdout)
//
// Single runs apply one intervention with WithOverlay; overlays are
// applied at visit time and never mutate the shared world.
//
// The package is a thin facade; the implementation lives in internal/
// packages (see DESIGN.md for the system inventory).
package headerbid

import (
	"io"

	"headerbid/internal/analysis"
	"headerbid/internal/browser"
	"headerbid/internal/core"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/obs"
	"headerbid/internal/partners"
	"headerbid/internal/report"
	"headerbid/internal/sitegen"
	"headerbid/internal/staticdet"
	"headerbid/internal/wayback"
)

// Re-exported core types. The facade deliberately exposes the small
// surface a downstream user needs; power users can vendor the internal
// packages' structure instead.
type (
	// World is the generated publisher ecosystem.
	World = sitegen.World
	// Site is one generated publisher.
	Site = sitegen.Site
	// WorldConfig tunes world generation.
	WorldConfig = sitegen.Config
	// SiteRecord is one crawled site observation.
	SiteRecord = dataset.SiteRecord
	// Summary is the Table 1 roll-up.
	Summary = dataset.Summary
	// Observation is a single-page detector result. It lives in its
	// Detector's storage and is valid until the detector's next
	// Reattach: copy what outlives the page.
	Observation = core.Observation
	// Registry is the demand-partner registry.
	Registry = partners.Registry
	// CrawlConfig tunes a crawl.
	CrawlConfig = crawler.Options
	// Archive is the historical snapshot archive for adoption studies.
	Archive = wayback.Archive
	// Metric is a streaming, mergeable accumulator over site records —
	// the unit of the metrics API. Attach metrics to a run with
	// WithMetrics; every figure-level analysis ships as one (see
	// NewFigureReport for the full bundle).
	Metric = analysis.Metric
	// FigureReport accumulates every dataset-derived table and figure of
	// the paper as one composite Metric; Render writes the full report.
	FigureReport = report.Figures
	// TracePlan selects which visits of a crawl record spans (see
	// WithTrace); selection is rank-ordered and worker-count-invariant.
	TracePlan = obs.TracePlan
	// Telemetry is the run-level counter registry fed by a crawl (see
	// WithTelemetry); read it live from another goroutine via Totals.
	Telemetry = obs.Registry
	// TelemetryTotals is one consistent read of a Telemetry registry.
	//
	//hbvet:allow deadexport used by bench/ (module hbbench)
	TelemetryTotals = obs.Totals
)

// NewTelemetry returns an empty run-telemetry registry.
func NewTelemetry() *Telemetry { return obs.NewRegistry() }

// FacetClient is the client-side HB deployment style (a prebid.js-style
// wrapper in the page).
const FacetClient = hb.FacetClient

// DefaultWorldConfig returns the paper-calibrated generation config.
func DefaultWorldConfig(seed int64) WorldConfig { return sitegen.DefaultConfig(seed) }

// GenerateWorld builds a synthetic publisher ecosystem.
func GenerateWorld(cfg WorldConfig) *World { return sitegen.Generate(cfg) }

// Partners returns the registry of the 84 demand partners of the study.
//
//hbvet:allow deadexport documented by ExamplePartners
func Partners() *Registry { return partners.Default() }

// DefaultCrawlConfig mirrors the paper's crawl policy.
func DefaultCrawlConfig(seed int64) CrawlConfig { return crawler.DefaultOptions(seed) }

// VisitSite measures one site (one clean-slate visit) and returns its
// record — the single-page entry point HBDetector exposes as a browser
// extension in the paper.
func VisitSite(w *World, s *Site, day int, cfg CrawlConfig) *SiteRecord {
	return crawler.VisitSimulated(w, s, day, cfg)
}

// ReadDatasetStream decodes a JSONL dataset record by record, handing
// each to fn without materializing the dataset.
func ReadDatasetStream(r io.Reader, fn func(*SiteRecord) error) error {
	return dataset.ReadStream(r, fn)
}

// NewFigureReport returns an empty full-figure-report metric over the
// study's demand-partner registry. Attach it to an Experiment with
// WithMetrics (or fold a JSONL stream into it with Add) and Render the
// complete report — no record slice is ever materialized, and the output
// is byte-identical across worker counts.
func NewFigureReport() *FigureReport {
	return report.NewFigures(partners.Default())
}

// NewArchive builds the historical snapshot archive (top-1k per year).
func NewArchive(seed int64, topN int) *Archive { return wayback.NewArchive(seed, topN) }

// AdoptionOverYears runs the Figure 4 study on an archive with the
// paper's static analysis.
func AdoptionOverYears(a *Archive) []analysis.YearAdoption {
	return analysis.AdoptionOverYears(a, staticdet.New())
}

// WaterfallComparison is the §7.2 HB-vs-waterfall comparison as a
// Metric bound to one world: it keeps each HB site's measured latencies,
// and its Result runs the waterfall baseline over that world.
type WaterfallComparison = analysis.WaterfallComparisonMetric

// NewWaterfallComparison returns an empty §7.2 metric bound to w (attach
// it with WithMetrics to a run over w); the waterfall baseline is
// deterministic in seed.
func NewWaterfallComparison(w *World, seed int64) *WaterfallComparison {
	return analysis.NewWaterfallComparison(w, seed)
}

// Browser/Detector access for custom environments (see examples/livecapture).
type (
	// Page is one loaded webpage with its event bus and request inspector.
	Page = browser.Page
	// Detector is one page's HBDetector instance.
	Detector = core.Detector
)

// AttachDetector wires an HBDetector to a page.
func AttachDetector(p *Page, reg *Registry) *Detector { return core.Attach(p, reg) }
