package analysis

import (
	"sort"
	"time"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/rng"
	"headerbid/internal/sitegen"
	"headerbid/internal/staticdet"
	"headerbid/internal/stats"
	"headerbid/internal/waterfall"
	"headerbid/internal/wayback"
)

// ---------------------------------------------------------------------------
// Historical adoption (Figure 4)
// ---------------------------------------------------------------------------

// YearAdoption is one year of Figure 4.
type YearAdoption struct {
	Year     int
	Sites    int
	Detected int
	Rate     float64
	// TrueRate is the archive's ground truth, for validating the static
	// detector (not available to the paper; available to us).
	TrueRate float64
}

// AdoptionOverYears runs the paper's Wayback study: static analysis of
// every archived snapshot per yearly top list.
func AdoptionOverYears(a *wayback.Archive, det *staticdet.Detector) []YearAdoption {
	if det == nil {
		det = staticdet.New()
	}
	var out []YearAdoption
	for _, year := range wayback.Years {
		snaps := a.Snapshots(year)
		detected := 0
		for _, s := range snaps {
			if det.Scan(s.HTML).HB {
				detected++
			}
		}
		ya := YearAdoption{
			Year:     year,
			Sites:    len(snaps),
			Detected: detected,
			TrueRate: a.TrueAdoption(year),
		}
		if len(snaps) > 0 {
			ya.Rate = float64(detected) / float64(len(snaps))
		}
		out = append(out, ya)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}

// ---------------------------------------------------------------------------
// HB vs waterfall (the headline §1/§7 comparison)
// ---------------------------------------------------------------------------

// ProtocolComparison summarizes the paired HB-vs-waterfall experiment.
type ProtocolComparison struct {
	Sites int

	HBLatency        stats.Box // milliseconds
	WaterfallLatency stats.Box // milliseconds

	// MedianRatio is HB median / waterfall median; the paper's headline
	// says HB can be up to 3x in the median case.
	MedianRatio float64
	// RatioMedian is the median of per-site HB/waterfall ratios.
	RatioMedian float64
	// P90Ratio captures the tail of per-site ratios (up to 15x in 10% of
	// cases, per the paper).
	P90Ratio float64

	// RevenueLossMedian is the waterfall's median lost revenue per slot
	// (highest bid seen anywhere in the chain minus price obtained) — the
	// inefficiency HB was invented to remove. HB's loss is zero by
	// construction (all bids compete simultaneously).
	RevenueLossMean float64
}

// WaterfallComparisonMetric accumulates the §7.2 comparison
// incrementally: every measured total HB latency, grouped by domain.
// The waterfall baseline needs the world, so the metric is bound to one
// at construction and runs the baseline only when Result is called.
type WaterfallComparisonMetric struct {
	state
	w    *sitegen.World
	seed int64
	lat  map[string][]float64
}

// NewWaterfallComparison returns an empty §7.2 metric bound to w; the
// waterfall baseline it runs is deterministic in seed.
func NewWaterfallComparison(w *sitegen.World, seed int64) *WaterfallComparisonMetric {
	m := &WaterfallComparisonMetric{w: w, seed: seed, lat: make(map[string][]float64)}
	return hold(m, (*keyed[string])(&m.lat))
}

// Name identifies the metric.
func (m *WaterfallComparisonMetric) Name() string { return "waterfall_comparison" }

// Add keeps the record's total HB latency under its domain.
func (m *WaterfallComparisonMetric) Add(r *dataset.SiteRecord) {
	if r.HB && r.TotalHBLatencyMS > 0 {
		m.lat[r.Domain] = append(m.lat[r.Domain], r.TotalHBLatencyMS)
	}
}

// NewShard returns a fresh empty accumulator bound to the same world.
func (m *WaterfallComparisonMetric) NewShard() Metric { return NewWaterfallComparison(m.w, m.seed) }

// Snapshot returns Result.
func (m *WaterfallComparisonMetric) Snapshot() any { return m.Result() }

// Result runs the waterfall baseline over every HB site of the world
// (one slot per site, the site's configured partners as the chain) and
// compares per-site latency against the HB latencies measured for it.
// Deterministic in the seed.
func (m *WaterfallComparisonMetric) Result() ProtocolComparison {
	w, seed, latByDomain := m.w, m.seed, m.lat

	var hbLat, wfLat []float64
	var ratios []float64
	var losses []float64
	for _, s := range w.HBSites() {
		hls, ok := latByDomain[s.Domain]
		if !ok {
			continue
		}
		// Build the waterfall chain from the same partners the site uses
		// in HB, ordered by historical eCPM.
		chain := waterfall.NewChain(s.Domain, resolveProfiles(w, s.Partners), s.FloorCPM, seed)
		r := rng.SplitStable(seed, "wf/"+s.Domain)
		res := chain.Run("slot-1", firstSize(s), r)

		wfMS := float64(res.Latency) / float64(time.Millisecond)
		hbMS := stats.Median(hls)
		hbLat = append(hbLat, hbMS)
		wfLat = append(wfLat, wfMS)
		if wfMS > 0 {
			ratios = append(ratios, hbMS/wfMS)
		}
		losses = append(losses, res.RevenueLoss())
	}

	cmp := ProtocolComparison{Sites: len(hbLat)}
	if b, err := stats.BoxOf(hbLat); err == nil {
		cmp.HBLatency = b
	}
	if b, err := stats.BoxOf(wfLat); err == nil {
		cmp.WaterfallLatency = b
	}
	if cmp.WaterfallLatency.Median > 0 {
		cmp.MedianRatio = cmp.HBLatency.Median / cmp.WaterfallLatency.Median
	}
	if len(ratios) > 0 {
		cmp.RatioMedian = stats.Quantile(ratios, 0.5)
		cmp.P90Ratio = stats.Quantile(ratios, 0.9)
	}
	cmp.RevenueLossMean = stats.Mean(losses)
	return cmp
}

// MeanWaterfallPasses runs the waterfall baseline over the world's HB
// sites and returns the mean number of passes walked per slot — the
// denominator of the traffic-amplification estimate.
//
//hbvet:allow deadexport paper value: the §7.3 amplification denominator, reported only by the root BenchmarkTrafficOverhead until the fidelity scorecard (ROADMAP item 1) reads it
func MeanWaterfallPasses(w *sitegen.World, seed int64) float64 {
	var sum float64
	var n int
	for _, s := range w.HBSites() {
		chain := waterfall.NewChain(s.Domain, resolveProfiles(w, s.Partners), s.FloorCPM, seed)
		r := rng.SplitStable(seed, "wfpass/"+s.Domain)
		res := chain.Run("slot-1", firstSize(s), r)
		sum += float64(len(res.Passes))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// resolveProfiles maps partner slugs to registry profiles, skipping
// unknowns.
func resolveProfiles(w *sitegen.World, slugs []string) []*partners.Profile {
	var out []*partners.Profile
	for _, slug := range slugs {
		if p, ok := w.Registry.BySlug(slug); ok {
			out = append(out, p)
		}
	}
	return out
}

func firstSize(s *sitegen.Site) hb.Size {
	if len(s.AdUnits) > 0 {
		return s.AdUnits[0].PrimarySize()
	}
	return hb.SizeMediumRectangle
}
