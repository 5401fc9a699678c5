package analysis

import (
	"maps"
	"slices"
	"sort"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/stats"
)

// ---------------------------------------------------------------------------
// Auctioned ad-slots (Figures 19, 20, 21)
// ---------------------------------------------------------------------------

// SlotsPerSiteResult is Figure 19: per-facet distribution of auctioned
// slots per site.
type SlotsPerSiteResult struct {
	ByFacet map[hb.Facet]*stats.ECDF
	// FracOver20 is the share of HB sites auctioning more than 20 slots
	// (the multi-device oddity, ~3% in the paper).
	FracOver20 float64
}

// SlotsPerSiteMetric is Figure 19 over a site table: the auctioned slot
// count and facet of each domain's first HB record.
type SlotsPerSiteMetric struct {
	state
	siteView
}

// NewSlotsPerSite returns an empty Figure-19 metric.
func NewSlotsPerSite() *SlotsPerSiteMetric {
	m := &SlotsPerSiteMetric{siteView: ownSites()}
	return hold(m, &m.siteView)
}

// Name identifies the metric.
func (m *SlotsPerSiteMetric) Name() string { return "slots_per_site" }

// NewShard returns a fresh empty accumulator.
func (m *SlotsPerSiteMetric) NewShard() Metric { return NewSlotsPerSite() }

// Snapshot returns Result.
func (m *SlotsPerSiteMetric) Snapshot() any { return m.Result() }

// Result computes Figure 19 over everything added.
func (m *SlotsPerSiteMetric) Result() SlotsPerSiteResult {
	byFacet := map[hb.Facet][]float64{}
	over20, total := 0, 0
	for _, s := range m.sites.hb {
		if s.slots <= 0 {
			continue
		}
		byFacet[s.facet] = append(byFacet[s.facet], float64(s.slots))
		total++
		if s.slots > 20 {
			over20++
		}
	}
	res := SlotsPerSiteResult{ByFacet: map[hb.Facet]*stats.ECDF{}}
	for f, xs := range byFacet {
		res.ByFacet[f] = stats.NewECDF(xs)
	}
	if total > 0 {
		res.FracOver20 = float64(over20) / float64(total)
	}
	return res
}

// LatencyVsSlotsMetric accumulates Figure 20 incrementally: latency
// samples per clamped auctioned-slot count over every HB record.
type LatencyVsSlotsMetric struct {
	state
	maxSlots int
	byCount  map[int][]float64
}

// NewLatencyVsSlots returns an empty Figure-20 metric (maxSlots<=0 uses
// 15; higher counts are clamped).
func NewLatencyVsSlots(maxSlots int) *LatencyVsSlotsMetric {
	if maxSlots <= 0 {
		maxSlots = 15
	}
	m := &LatencyVsSlotsMetric{maxSlots: maxSlots, byCount: make(map[int][]float64)}
	return hold(m, (*param)(&m.maxSlots), (*keyed[int])(&m.byCount))
}

// Name identifies the metric.
func (m *LatencyVsSlotsMetric) Name() string { return "latency_vs_slots" }

// Add folds one record in (non-HB records are ignored).
func (m *LatencyVsSlotsMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	n := r.AdSlotsAuctioned
	if n <= 0 || r.TotalHBLatencyMS <= 0 {
		return
	}
	c := min(n, m.maxSlots)
	m.byCount[c] = append(m.byCount[c], r.TotalHBLatencyMS)
}

// NewShard returns a fresh empty accumulator with the same clamp.
func (m *LatencyVsSlotsMetric) NewShard() Metric { return NewLatencyVsSlots(m.maxSlots) }

// Snapshot returns Result.
func (m *LatencyVsSlotsMetric) Snapshot() any { return m.Result() }

// Result computes the Figure-20 rows over everything added. It walks
// the counts present, not 1..maxSlots: a decoded clamp can be
// arbitrarily large.
func (m *LatencyVsSlotsMetric) Result() []CountLatency {
	var out []CountLatency
	for _, n := range slices.Sorted(maps.Keys(m.byCount)) {
		if n < 1 || n > m.maxSlots {
			continue
		}
		xs := m.byCount[n]
		box, err := stats.BoxOf(xs)
		if err != nil {
			continue
		}
		out = append(out, CountLatency{Partners: n, Stats: box, Sites: len(xs)})
	}
	return out
}

// SizeShare is Figure 21: one slot dimension's share of auctioned slots
// within a facet.
type SizeShare struct {
	Size  hb.Size
	Slots int
	Share float64
}

// SlotSizesMetric accumulates Figure 21 incrementally: per-facet slot
// dimension counts over every HB record's auctions.
type SlotSizesMetric struct {
	state
	k      int
	counts [3]map[hb.Size]int // in hb.Facets() order
	totals [3]int
}

// NewSlotSizes returns an empty Figure-21 metric; k<=0 reports all.
func NewSlotSizes(k int) *SlotSizesMetric {
	m := &SlotSizesMetric{k: k}
	acc := []accumulator{(*param)(&m.k)}
	for i := range m.counts {
		m.counts[i] = map[hb.Size]int{}
		acc = append(acc, (*tally[hb.Size, int])(&m.counts[i]), (*sum)(&m.totals[i]))
	}
	return hold(m, acc...)
}

// Name identifies the metric.
func (m *SlotSizesMetric) Name() string { return "slot_sizes" }

// Add folds one record in (non-HB and unknown-facet records are ignored).
func (m *SlotSizesMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	f := facetIndex(r.FacetValue())
	if f < 0 {
		return
	}
	counts := m.counts[f]
	for _, a := range r.Auctions {
		sz, err := hb.ParseSize(a.Size)
		if err != nil {
			continue
		}
		counts[sz]++
		m.totals[f]++
	}
}

// NewShard returns a fresh empty accumulator with the same k.
func (m *SlotSizesMetric) NewShard() Metric { return NewSlotSizes(m.k) }

// Snapshot returns Result.
func (m *SlotSizesMetric) Snapshot() any { return m.Result() }

// Result computes the per-facet dimension shares over everything added.
func (m *SlotSizesMetric) Result() map[hb.Facet][]SizeShare {
	out := map[hb.Facet][]SizeShare{}
	for i, facet := range hb.Facets() {
		counts := m.counts[i]
		total := m.totals[i]
		shares := make([]SizeShare, 0, len(counts))
		for sz, n := range counts {
			shares = append(shares, SizeShare{
				Size: sz, Slots: n, Share: float64(n) / float64(max(1, total)),
			})
		}
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].Slots != shares[j].Slots {
				return shares[i].Slots > shares[j].Slots
			}
			return shares[i].Size.String() < shares[j].Size.String()
		})
		if m.k > 0 && len(shares) > m.k {
			shares = shares[:m.k]
		}
		out[facet] = shares
	}
	return out
}

// ---------------------------------------------------------------------------
// Bid prices (Figures 22, 23, 24)
// ---------------------------------------------------------------------------

// PriceCDFResult is Figure 22: baseline bid prices per facet.
type PriceCDFResult struct {
	ByFacet map[hb.Facet]*stats.ECDF // USD CPM
	// FracOverHalf is the overall share of bids above 0.5 CPM (the paper
	// reports >20%).
	FracOverHalf float64
}

// PriceCDFMetric accumulates Figure 22 incrementally: per-facet CPM
// samples over every observed bid.
type PriceCDFMetric struct {
	state
	byFacet     map[hb.Facet][]float64
	over, total int
}

// NewPriceCDF returns an empty Figure-22 metric.
func NewPriceCDF() *PriceCDFMetric {
	m := &PriceCDFMetric{byFacet: make(map[hb.Facet][]float64)}
	return hold(m, (*keyed[hb.Facet])(&m.byFacet), (*sum)(&m.over), (*sum)(&m.total))
}

// Name identifies the metric.
func (m *PriceCDFMetric) Name() string { return "price_cdf" }

// Add folds one record in (non-HB records and non-positive CPMs are
// ignored).
func (m *PriceCDFMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	f := r.FacetValue()
	for _, a := range r.Auctions {
		for _, b := range a.Bids {
			if b.CPM <= 0 {
				continue
			}
			m.byFacet[f] = append(m.byFacet[f], b.CPM)
			m.total++
			if b.CPM > 0.5 {
				m.over++
			}
		}
	}
}

// NewShard returns a fresh empty accumulator.
func (m *PriceCDFMetric) NewShard() Metric { return NewPriceCDF() }

// Snapshot returns Result.
func (m *PriceCDFMetric) Snapshot() any { return m.Result() }

// Result computes Figure 22 over everything added.
func (m *PriceCDFMetric) Result() PriceCDFResult {
	res := PriceCDFResult{ByFacet: map[hb.Facet]*stats.ECDF{}}
	for f, xs := range m.byFacet {
		res.ByFacet[f] = stats.NewECDF(xs)
	}
	if m.total > 0 {
		res.FracOverHalf = float64(m.over) / float64(m.total)
	}
	return res
}

// SizePrice is Figure 23: price distribution for one slot dimension.
type SizePrice struct {
	Size  hb.Size
	Stats stats.Box // USD CPM
	Bids  int
}

// PricePerSizeMetric accumulates Figure 23 incrementally: CPM samples
// per slot dimension.
type PricePerSizeMetric struct {
	state
	minBids int
	bySize  map[hb.Size][]float64
}

// NewPricePerSize returns an empty Figure-23 metric; minBids filters
// sparsely observed sizes.
func NewPricePerSize(minBids int) *PricePerSizeMetric {
	m := &PricePerSizeMetric{minBids: minBids, bySize: make(map[hb.Size][]float64)}
	return hold(m, (*param)(&m.minBids), (*keyed[hb.Size])(&m.bySize))
}

// Name identifies the metric.
func (m *PricePerSizeMetric) Name() string { return "price_per_size" }

// Add folds one record in (non-HB records are ignored; a bid with no
// parseable size falls back to its auction's size).
func (m *PricePerSizeMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	for _, a := range r.Auctions {
		for _, b := range a.Bids {
			if b.CPM <= 0 {
				continue
			}
			sz, err := hb.ParseSize(b.Size)
			if err != nil {
				sz, err = hb.ParseSize(a.Size)
				if err != nil {
					continue
				}
			}
			m.bySize[sz] = append(m.bySize[sz], b.CPM)
		}
	}
}

// NewShard returns a fresh empty accumulator with the same filter.
func (m *PricePerSizeMetric) NewShard() Metric { return NewPricePerSize(m.minBids) }

// Snapshot returns Result.
func (m *PricePerSizeMetric) Snapshot() any { return m.Result() }

// Result computes Figure 23 over everything added, ordered by slot area
// (the paper's x-axis ordering).
func (m *PricePerSizeMetric) Result() []SizePrice {
	var out []SizePrice
	for sz, xs := range m.bySize {
		if len(xs) < m.minBids {
			continue
		}
		box, err := stats.BoxOf(xs)
		if err != nil {
			continue
		}
		out = append(out, SizePrice{Size: sz, Stats: box, Bids: len(xs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size.Area() != out[j].Size.Area() {
			return out[i].Size.Area() > out[j].Size.Area()
		}
		return out[i].Size.String() < out[j].Size.String()
	})
	return out
}

// PriceVsPopularityMetric accumulates Figure 24 incrementally: CPM
// samples per partner-popularity bin.
type PriceVsPopularityMetric struct {
	state
	reg *partners.Registry
	b   *stats.Binner
}

// NewPriceVsPopularity returns an empty Figure-24 metric (binWidth<=0
// uses the paper's 10).
func NewPriceVsPopularity(reg *partners.Registry, binWidth int) *PriceVsPopularityMetric {
	if binWidth <= 0 {
		binWidth = 10
	}
	m := &PriceVsPopularityMetric{reg: reg, b: stats.NewBinner(binWidth)}
	return hold(m, (*binner)(m.b))
}

// Name identifies the metric.
func (m *PriceVsPopularityMetric) Name() string { return "price_vs_popularity" }

// Add folds one record in (non-HB records are ignored).
func (m *PriceVsPopularityMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	for _, a := range r.Auctions {
		for _, bd := range a.Bids {
			if bd.CPM <= 0 {
				continue
			}
			rank, ok := m.reg.PopularityRank(bd.Bidder)
			if !ok {
				continue
			}
			m.b.Add(rank-1, bd.CPM)
		}
	}
}

// NewShard returns a fresh empty accumulator with the same registry and
// bin width.
func (m *PriceVsPopularityMetric) NewShard() Metric {
	return NewPriceVsPopularity(m.reg, m.b.Width)
}

// Snapshot returns Result.
func (m *PriceVsPopularityMetric) Snapshot() any { return m.Result() }

// Result computes the per-bin whisker summaries over everything added.
func (m *PriceVsPopularityMetric) Result() []stats.BinSummary { return m.b.Summaries() }
