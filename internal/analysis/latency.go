package analysis

import (
	"maps"
	"slices"
	"sort"

	"headerbid/internal/dataset"
	"headerbid/internal/partners"
	"headerbid/internal/stats"
)

// ---------------------------------------------------------------------------
// Latency (Figures 12, 13, 14, 15, 16)
// ---------------------------------------------------------------------------

// LatencyCDFResult is Figure 12: the total HB latency distribution with
// the paper's two annotated markers.
type LatencyCDFResult struct {
	ECDF *stats.ECDF // milliseconds
	// MedianMS is marker (1) in the paper's figure (≈600ms there).
	MedianMS float64
	// FracOver1s/3s/5s locate the tail (paper: 35% / ~10% / 4%).
	FracOver1s float64
	FracOver3s float64
	FracOver5s float64
	Sites      int
}

// LatencyAccumulator builds the Figure-12 latency CDF incrementally, one
// record at a time, so a streaming crawl can compute it without ever
// holding the record slice: only the per-site latency samples (one
// float64 per HB site) are retained.
type LatencyAccumulator struct {
	state
	xs []float64
}

// NewLatencyAccumulator returns an empty accumulator.
func NewLatencyAccumulator() *LatencyAccumulator {
	a := &LatencyAccumulator{}
	return hold(a, (*samples)(&a.xs))
}

// Name identifies the metric.
func (a *LatencyAccumulator) Name() string { return "latency_cdf" }

// Add folds one record in (non-HB and latency-free records are ignored).
func (a *LatencyAccumulator) Add(r *dataset.SiteRecord) {
	if r.HB && r.TotalHBLatencyMS > 0 {
		a.xs = append(a.xs, r.TotalHBLatencyMS)
	}
}

// NewShard returns a fresh empty accumulator.
func (a *LatencyAccumulator) NewShard() Metric { return NewLatencyAccumulator() }

// Snapshot returns Result.
func (a *LatencyAccumulator) Snapshot() any { return a.Result() }

// Result computes the CDF over everything added so far.
func (a *LatencyAccumulator) Result() LatencyCDFResult {
	e := stats.NewECDF(a.xs)
	return LatencyCDFResult{
		ECDF:       e,
		MedianMS:   e.Quantile(0.5),
		FracOver1s: 1 - e.P(1000),
		FracOver3s: 1 - e.P(3000),
		FracOver5s: 1 - e.P(5000),
		Sites:      len(a.xs),
	}
}

// LatencyVsRankMetric accumulates Figure 13 incrementally: per-rank-bin
// latency samples.
type LatencyVsRankMetric struct {
	state
	b *stats.Binner
}

// NewLatencyVsRank returns an empty Figure-13 metric (binWidth<=0 uses
// the paper's 500).
func NewLatencyVsRank(binWidth int) *LatencyVsRankMetric {
	if binWidth <= 0 {
		binWidth = 500
	}
	m := &LatencyVsRankMetric{b: stats.NewBinner(binWidth)}
	return hold(m, (*binner)(m.b))
}

// Name identifies the metric.
func (m *LatencyVsRankMetric) Name() string { return "latency_vs_rank" }

// Add folds one record in.
func (m *LatencyVsRankMetric) Add(r *dataset.SiteRecord) {
	if r.HB && r.TotalHBLatencyMS > 0 {
		m.b.Add(r.Rank-1, r.TotalHBLatencyMS)
	}
}

// NewShard returns a fresh empty accumulator with the same bin width.
func (m *LatencyVsRankMetric) NewShard() Metric { return NewLatencyVsRank(m.b.Width) }

// Snapshot returns Result.
func (m *LatencyVsRankMetric) Snapshot() any { return m.Result() }

// Result computes the per-bin whisker summaries over everything added.
func (m *LatencyVsRankMetric) Result() []stats.BinSummary { return m.b.Summaries() }

// PartnerLatencySummary is one partner's observed latency profile.
type PartnerLatencySummary struct {
	Slug    string
	Stats   stats.Box // milliseconds
	Samples int
}

// PartnerLatenciesMetric accumulates observed per-partner bid latencies
// incrementally — the raw material of Figures 14 and 16.
type PartnerLatenciesMetric struct {
	state
	byPartner map[string][]float64
}

// NewPartnerLatencies returns an empty per-partner latency metric.
func NewPartnerLatencies() *PartnerLatenciesMetric {
	m := &PartnerLatenciesMetric{byPartner: make(map[string][]float64)}
	return hold(m, (*keyed[string])(&m.byPartner))
}

// Name identifies the metric.
func (m *PartnerLatenciesMetric) Name() string { return "partner_latencies" }

// Add folds one record in (non-HB records are ignored).
func (m *PartnerLatenciesMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	for slug, ls := range r.PartnerLatencyMS {
		m.byPartner[slug] = append(m.byPartner[slug], ls...)
	}
}

// NewShard returns a fresh empty accumulator.
func (m *PartnerLatenciesMetric) NewShard() Metric { return NewPartnerLatencies() }

// Snapshot returns Result.
func (m *PartnerLatenciesMetric) Snapshot() any { return m.Result() }

// Result summarizes every partner's latency profile, sorted by slug.
func (m *PartnerLatenciesMetric) Result() []PartnerLatencySummary {
	out := make([]PartnerLatencySummary, 0, len(m.byPartner))
	for slug, xs := range m.byPartner {
		box, err := stats.BoxOf(xs)
		if err != nil {
			continue
		}
		out = append(out, PartnerLatencySummary{Slug: slug, Stats: box, Samples: len(xs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slug < out[j].Slug })
	return out
}

// Extremes computes Figure 14 over everything added. k bounds each
// group; minSamples filters out partners with too few observations to
// summarize honestly.
func (m *PartnerLatenciesMetric) Extremes(reg *partners.Registry, k, minSamples int) PartnerLatencyExtremes {
	return extremesOf(m.Result(), reg, k, minSamples)
}

// PartnerLatencyExtremes is Figure 14: the fastest partners, the top
// partners by market share, and the slowest partners.
type PartnerLatencyExtremes struct {
	Fastest []PartnerLatencySummary
	Top     []PartnerLatencySummary
	Slowest []PartnerLatencySummary
}

// extremesOf computes Figure 14 from the full per-partner summary list.
func extremesOf(all []PartnerLatencySummary, reg *partners.Registry, k, minSamples int) PartnerLatencyExtremes {
	var eligible []PartnerLatencySummary
	for _, p := range all {
		if p.Samples >= minSamples {
			eligible = append(eligible, p)
		}
	}
	byMedian := append([]PartnerLatencySummary(nil), eligible...)
	sort.Slice(byMedian, func(i, j int) bool { return byMedian[i].Stats.Median < byMedian[j].Stats.Median })

	res := PartnerLatencyExtremes{}
	for i := 0; i < k && i < len(byMedian); i++ {
		res.Fastest = append(res.Fastest, byMedian[i])
	}
	for i := 0; i < k && i < len(byMedian); i++ {
		res.Slowest = append(res.Slowest, byMedian[len(byMedian)-1-i])
	}
	// Top market share: popularity order from the registry.
	bySlug := map[string]PartnerLatencySummary{}
	for _, p := range all {
		bySlug[p.Slug] = p
	}
	for _, prof := range reg.All() {
		if len(res.Top) >= k {
			break
		}
		if p, ok := bySlug[prof.Slug]; ok {
			res.Top = append(res.Top, p)
		}
	}
	return res
}

// CountLatency is Figure 15: latency and site share at one partner count.
type CountLatency struct {
	Partners  int
	Stats     stats.Box // milliseconds
	Sites     int
	SiteShare float64
}

// LatencyVsPartnerCountMetric accumulates Figure 15: the partner count
// of each domain's first HB record, read from a site table, plus latency
// samples per capped partner count over every HB record.
type LatencyVsPartnerCountMetric struct {
	state
	siteView
	maxPartners int
	byCount     map[int][]float64
}

// NewLatencyVsPartnerCount returns an empty Figure-15 metric
// (maxPartners<=0 uses the paper's 15; higher counts are clamped).
func NewLatencyVsPartnerCount(maxPartners int) *LatencyVsPartnerCountMetric {
	if maxPartners <= 0 {
		maxPartners = 15
	}
	m := &LatencyVsPartnerCountMetric{
		siteView:    ownSites(),
		maxPartners: maxPartners,
		byCount:     make(map[int][]float64),
	}
	return hold(m, (*param)(&m.maxPartners), &m.siteView, (*keyed[int])(&m.byCount))
}

// Name identifies the metric.
func (m *LatencyVsPartnerCountMetric) Name() string { return "latency_vs_partner_count" }

// Add folds one record in (non-HB records only reach the site table).
func (m *LatencyVsPartnerCountMetric) Add(r *dataset.SiteRecord) {
	m.siteView.Add(r)
	if !r.HB {
		return
	}
	if n := len(r.Partners); n > 0 && r.TotalHBLatencyMS > 0 {
		c := min(n, m.maxPartners)
		m.byCount[c] = append(m.byCount[c], r.TotalHBLatencyMS)
	}
}

// NewShard returns a fresh empty accumulator with the same cap.
func (m *LatencyVsPartnerCountMetric) NewShard() Metric {
	return NewLatencyVsPartnerCount(m.maxPartners)
}

// Snapshot returns Result.
func (m *LatencyVsPartnerCountMetric) Snapshot() any { return m.Result() }

// Result computes the Figure-15 rows over everything added. It walks
// the counts present, not 1..maxPartners: a decoded clamp can be
// arbitrarily large.
func (m *LatencyVsPartnerCountMetric) Result() []CountLatency {
	siteCount := map[int]int{}
	totalSites := 0
	for _, s := range m.sites.hb {
		if n := len(s.partners); n > 0 {
			siteCount[min(n, m.maxPartners)]++
			totalSites++
		}
	}
	var out []CountLatency
	for _, n := range slices.Sorted(maps.Keys(m.byCount)) {
		xs := m.byCount[n]
		if n < 1 || n > m.maxPartners || len(xs) == 0 {
			continue
		}
		box, err := stats.BoxOf(xs)
		if err != nil {
			continue
		}
		out = append(out, CountLatency{
			Partners:  n,
			Stats:     box,
			Sites:     siteCount[n],
			SiteShare: float64(siteCount[n]) / float64(max(1, totalSites)),
		})
	}
	return out
}

// LatencyVsPopularityMetric accumulates Figure 16 incrementally:
// per-popularity-rank-bin latency samples.
type LatencyVsPopularityMetric struct {
	state
	reg *partners.Registry
	b   *stats.Binner
}

// NewLatencyVsPopularity returns an empty Figure-16 metric (binWidth<=0
// uses the paper's 10).
func NewLatencyVsPopularity(reg *partners.Registry, binWidth int) *LatencyVsPopularityMetric {
	if binWidth <= 0 {
		binWidth = 10
	}
	m := &LatencyVsPopularityMetric{reg: reg, b: stats.NewBinner(binWidth)}
	return hold(m, (*binner)(m.b))
}

// Name identifies the metric.
func (m *LatencyVsPopularityMetric) Name() string { return "latency_vs_popularity" }

// Add folds one record in (non-HB records are ignored). Partners are
// visited in slug order, not map order: several can share a bin, and a
// bin's sample order is part of the encoded state, so identical folds
// must append them identically.
func (m *LatencyVsPopularityMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	var buf [32]string
	slugs := buf[:0]
	for slug := range r.PartnerLatencyMS {
		slugs = append(slugs, slug)
	}
	slices.Sort(slugs)
	for _, slug := range slugs {
		rank, ok := m.reg.PopularityRank(slug)
		if !ok {
			continue
		}
		for _, l := range r.PartnerLatencyMS[slug] {
			m.b.Add(rank-1, l)
		}
	}
}

// NewShard returns a fresh empty accumulator with the same registry and
// bin width.
func (m *LatencyVsPopularityMetric) NewShard() Metric {
	return NewLatencyVsPopularity(m.reg, m.b.Width)
}

// Snapshot returns Result.
func (m *LatencyVsPopularityMetric) Snapshot() any { return m.Result() }

// Result computes the per-bin whisker summaries over everything added.
func (m *LatencyVsPopularityMetric) Result() []stats.BinSummary { return m.b.Summaries() }

// ---------------------------------------------------------------------------
// Late bids (Figures 17, 18)
// ---------------------------------------------------------------------------

// LateBidsResult is Figure 17: the distribution of the late-bid fraction
// among auctions that had at least one late bid, plus context counts.
type LateBidsResult struct {
	ECDF *stats.ECDF // percent late per auction, over auctions with late bids
	// AuctionsWithLate / TotalAuctions give the prevalence.
	AuctionsWithLate int
	TotalAuctions    int
	// FracAuctionsOneLate etc. mirror the paper's counts ("in 60% of the
	// auctions [with late bids] there was only one late bid...").
	FracOneLate     float64
	FracTwoPlus     float64
	FracFourPlus    float64
	MedianLateShare float64
	P90LateShare    float64
}

// LateBidsMetric accumulates Figure 17 incrementally: per-auction late
// shares plus prevalence counters.
type LateBidsMetric struct {
	state
	shares                  []float64
	totalAuctions, withLate int
	one, twoPlus, fourPlus  int
}

// NewLateBids returns an empty Figure-17 metric.
func NewLateBids() *LateBidsMetric {
	m := &LateBidsMetric{}
	return hold(m, (*samples)(&m.shares), (*sum)(&m.totalAuctions), (*sum)(&m.withLate),
		(*sum)(&m.one), (*sum)(&m.twoPlus), (*sum)(&m.fourPlus))
}

// Name identifies the metric.
func (m *LateBidsMetric) Name() string { return "late_bids" }

// Add folds one record in (non-HB records are ignored).
func (m *LateBidsMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	for _, a := range r.Auctions {
		if len(a.Bids) == 0 {
			continue
		}
		m.totalAuctions++
		late := 0
		for _, b := range a.Bids {
			if b.Late {
				late++
			}
		}
		if late == 0 {
			continue
		}
		m.withLate++
		m.shares = append(m.shares, 100*float64(late)/float64(len(a.Bids)))
		if late == 1 {
			m.one++
		}
		if late >= 2 {
			m.twoPlus++
		}
		if late >= 4 {
			m.fourPlus++
		}
	}
}

// NewShard returns a fresh empty accumulator.
func (m *LateBidsMetric) NewShard() Metric { return NewLateBids() }

// Snapshot returns Result.
func (m *LateBidsMetric) Snapshot() any { return m.Result() }

// Result computes Figure 17 over everything added.
func (m *LateBidsMetric) Result() LateBidsResult {
	res := LateBidsResult{
		ECDF:             stats.NewECDF(m.shares),
		AuctionsWithLate: m.withLate,
		TotalAuctions:    m.totalAuctions,
	}
	if m.withLate > 0 {
		res.FracOneLate = float64(m.one) / float64(m.withLate)
		res.FracTwoPlus = float64(m.twoPlus) / float64(m.withLate)
		res.FracFourPlus = float64(m.fourPlus) / float64(m.withLate)
		res.MedianLateShare = res.ECDF.Quantile(0.5)
		res.P90LateShare = res.ECDF.Quantile(0.9)
	}
	return res
}

// PartnerLateShare is Figure 18: one partner's late-bid rate.
type PartnerLateShare struct {
	Slug      string
	Bids      int
	LateBids  int
	LateShare float64
}

// LateBidsPerPartnerMetric accumulates Figure 18 incrementally:
// per-partner bid and late-bid counters.
type LateBidsPerPartnerMetric struct {
	state
	k, minBids int
	bids       map[string]int
	late       map[string]int
}

// NewLateBidsPerPartner returns an empty Figure-18 metric; minBids
// filters noise; k<=0 reports all.
func NewLateBidsPerPartner(k, minBids int) *LateBidsPerPartnerMetric {
	m := &LateBidsPerPartnerMetric{
		k: k, minBids: minBids,
		bids: make(map[string]int),
		late: make(map[string]int),
	}
	return hold(m, (*param)(&m.k), (*param)(&m.minBids), (*tally[string, int])(&m.bids), (*tally[string, int])(&m.late))
}

// Name identifies the metric.
func (m *LateBidsPerPartnerMetric) Name() string { return "late_bids_per_partner" }

// Add folds one record in (non-HB records are ignored; server-side bids
// are skipped — lateness is unobservable there).
func (m *LateBidsPerPartnerMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	for _, a := range r.Auctions {
		for _, b := range a.Bids {
			if b.Source == "s2s" {
				continue
			}
			m.bids[b.Bidder]++
			if b.Late {
				m.late[b.Bidder]++
			}
		}
	}
}

// NewShard returns a fresh empty accumulator with the same filters.
func (m *LateBidsPerPartnerMetric) NewShard() Metric {
	return NewLateBidsPerPartner(m.k, m.minBids)
}

// Snapshot returns Result.
func (m *LateBidsPerPartnerMetric) Snapshot() any { return m.Result() }

// Result computes Figure 18 over everything added, descending by late
// share.
func (m *LateBidsPerPartnerMetric) Result() []PartnerLateShare {
	var out []PartnerLateShare
	for slug, bids := range m.bids {
		if bids < m.minBids {
			continue
		}
		late := m.late[slug]
		out = append(out, PartnerLateShare{
			Slug: slug, Bids: bids, LateBids: late,
			LateShare: float64(late) / float64(bids),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LateShare != out[j].LateShare {
			return out[i].LateShare > out[j].LateShare
		}
		return out[i].Slug < out[j].Slug
	})
	if m.k > 0 && len(out) > m.k {
		out = out[:m.k]
	}
	return out
}
