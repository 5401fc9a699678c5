// Package analysis turns crawl datasets into the tables and figures of
// the paper. Every figure-level analysis is a streaming Metric — an
// incremental, mergeable accumulator over dataset.SiteRecord (see
// metric.go for the contract) — so a crawl of any size can compute every
// figure without materializing the record slice, and per-worker shards
// merge into results identical to a single ordered pass. DESIGN.md §4
// maps each table and figure to its metric constructor.
package analysis

import (
	"slices"
	"sort"
	"strings"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/stats"
)

// ---------------------------------------------------------------------------
// Adoption (Table 1 companion, §3.2 rank bands, §4.6 facets)
// ---------------------------------------------------------------------------

// RankBandAdoption is HB adoption within one rank band.
type RankBandAdoption struct {
	Lo, Hi   int // rank range, inclusive
	Sites    int
	HBSites  int
	Adoption float64
}

// AdoptionByRankBandMetric is §3.2 over a site table: the rank and HB
// flag of each domain's first record.
type AdoptionByRankBandMetric struct {
	state
	siteView
}

// NewAdoptionByRankBand returns an empty §3.2 rank-band metric.
func NewAdoptionByRankBand() *AdoptionByRankBandMetric {
	m := &AdoptionByRankBandMetric{siteView: ownSites()}
	return hold(m, &m.siteView)
}

// Name identifies the metric.
func (m *AdoptionByRankBandMetric) Name() string { return "adoption_by_rank_band" }

// NewShard returns a fresh empty accumulator.
func (m *AdoptionByRankBandMetric) NewShard() Metric { return NewAdoptionByRankBand() }

// Snapshot returns Result.
func (m *AdoptionByRankBandMetric) Snapshot() any { return m.Result() }

// Result computes the rank-band adoption table over everything added.
func (m *AdoptionByRankBandMetric) Result() []RankBandAdoption {
	bands := []RankBandAdoption{
		{Lo: 1, Hi: 5000},
		{Lo: 5001, Hi: 15000},
		{Lo: 15001, Hi: 1 << 30},
	}
	maxRank := 0
	for _, s := range m.sites.first {
		rank := int(s.rank)
		for i := range bands {
			if rank >= bands[i].Lo && rank <= bands[i].Hi {
				bands[i].Sites++
				if s.hb {
					bands[i].HBSites++
				}
			}
		}
		maxRank = max(maxRank, rank)
	}
	var out []RankBandAdoption
	for _, b := range bands {
		if b.Sites == 0 {
			continue
		}
		if b.Hi > maxRank {
			b.Hi = maxRank
		}
		b.Adoption = float64(b.HBSites) / float64(b.Sites)
		out = append(out, b)
	}
	return out
}

// FacetShare is one facet's share of HB sites.
type FacetShare struct {
	Facet hb.Facet
	Sites int
	Share float64
}

// FacetBreakdownMetric is §4.6 over a site table: the facet of each
// domain's first HB record.
type FacetBreakdownMetric struct {
	state
	siteView
}

// NewFacetBreakdown returns an empty §4.6 facet metric.
func NewFacetBreakdown() *FacetBreakdownMetric {
	m := &FacetBreakdownMetric{siteView: ownSites()}
	return hold(m, &m.siteView)
}

// Name identifies the metric.
func (m *FacetBreakdownMetric) Name() string { return "facet_breakdown" }

// NewShard returns a fresh empty accumulator.
func (m *FacetBreakdownMetric) NewShard() Metric { return NewFacetBreakdown() }

// Snapshot returns Result.
func (m *FacetBreakdownMetric) Snapshot() any { return m.Result() }

// Result computes the per-facet shares over everything added.
func (m *FacetBreakdownMetric) Result() []FacetShare {
	counts := map[hb.Facet]int{}
	for _, s := range m.sites.hb {
		counts[s.facet]++
	}
	total := len(m.sites.hb)
	var out []FacetShare
	for _, f := range []hb.Facet{hb.FacetServer, hb.FacetHybrid, hb.FacetClient, hb.FacetUnknown} {
		n := counts[f]
		if n == 0 && f == hb.FacetUnknown {
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		out = append(out, FacetShare{Facet: f, Sites: n, Share: share})
	}
	return out
}

// ---------------------------------------------------------------------------
// Demand partners (Figures 8, 9, 10, 11)
// ---------------------------------------------------------------------------

// PartnerShare is one partner's site coverage (Figure 8).
type PartnerShare struct {
	Slug  string
	Sites int
	Share float64 // fraction of HB sites the partner appears on
}

// TopPartnersMetric is Figure 8 over a site table: the partner list of
// each domain's first HB record.
type TopPartnersMetric struct {
	state
	siteView
	k int
}

// NewTopPartners returns an empty Figure-8 metric; k<=0 reports all.
func NewTopPartners(k int) *TopPartnersMetric {
	m := &TopPartnersMetric{siteView: ownSites(), k: k}
	return hold(m, (*param)(&m.k), &m.siteView)
}

// Name identifies the metric.
func (m *TopPartnersMetric) Name() string { return "top_partners" }

// NewShard returns a fresh empty accumulator with the same k.
func (m *TopPartnersMetric) NewShard() Metric { return NewTopPartners(m.k) }

// Snapshot returns Result.
func (m *TopPartnersMetric) Snapshot() any { return m.Result() }

// Result computes the partner coverage table over everything added.
func (m *TopPartnersMetric) Result() []PartnerShare {
	counts := map[string]int{}
	for _, s := range m.sites.hb {
		for _, p := range s.partners {
			counts[p]++
		}
	}
	total := len(m.sites.hb)
	out := make([]PartnerShare, 0, len(counts))
	for slug, n := range counts {
		out = append(out, PartnerShare{
			Slug: slug, Sites: n, Share: float64(n) / float64(max(1, total)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sites != out[j].Sites {
			return out[i].Sites > out[j].Sites
		}
		return out[i].Slug < out[j].Slug
	})
	if m.k > 0 && len(out) > m.k {
		out = out[:m.k]
	}
	return out
}

// UniquePartnersMetric counts distinct partners incrementally.
type UniquePartnersMetric struct {
	state
	set map[string]bool
}

// NewUniquePartners returns an empty distinct-partner counter.
func NewUniquePartners() *UniquePartnersMetric {
	m := &UniquePartnersMetric{set: make(map[string]bool)}
	return hold(m, (*strset)(&m.set))
}

// Name identifies the metric.
func (m *UniquePartnersMetric) Name() string { return "unique_partners" }

// Add folds one record in.
func (m *UniquePartnersMetric) Add(r *dataset.SiteRecord) {
	for _, p := range r.Partners {
		m.set[p] = true
	}
	for _, p := range r.Winners {
		m.set[p] = true
	}
}

// NewShard returns a fresh empty accumulator.
func (m *UniquePartnersMetric) NewShard() Metric { return NewUniquePartners() }

// Snapshot returns Result.
func (m *UniquePartnersMetric) Snapshot() any { return m.Result() }

// Result reports the distinct partner count.
func (m *UniquePartnersMetric) Result() int { return len(m.set) }

// PartnersPerSiteResult reproduces Figure 9: the distribution of demand
// partners per HB site. Returns the ECDF plus the headline fractions.
type PartnersPerSiteResult struct {
	ECDF      *stats.ECDF
	FracOne   float64
	FracGE5   float64
	FracGE10  float64
	MaxCount  int
	SiteCount int
}

// PartnersPerSiteMetric is Figure 9 over a site table: the partner
// count of each domain's first HB record.
type PartnersPerSiteMetric struct {
	state
	siteView
}

// NewPartnersPerSite returns an empty Figure-9 metric.
func NewPartnersPerSite() *PartnersPerSiteMetric {
	m := &PartnersPerSiteMetric{siteView: ownSites()}
	return hold(m, &m.siteView)
}

// Name identifies the metric.
func (m *PartnersPerSiteMetric) Name() string { return "partners_per_site" }

// NewShard returns a fresh empty accumulator.
func (m *PartnersPerSiteMetric) NewShard() Metric { return NewPartnersPerSite() }

// Snapshot returns Result.
func (m *PartnersPerSiteMetric) Snapshot() any { return m.Result() }

// Result computes the Figure-9 distribution over everything added.
func (m *PartnersPerSiteMetric) Result() PartnersPerSiteResult {
	var xs []float64
	maxC := 0
	one, ge5, ge10 := 0, 0, 0
	for _, s := range m.sites.hb {
		n := len(s.partners)
		xs = append(xs, float64(n))
		if n == 1 {
			one++
		}
		if n >= 5 {
			ge5++
		}
		if n >= 10 {
			ge10++
		}
		maxC = max(maxC, n)
	}
	slices.Sort(xs)
	total := max(1, len(xs))
	return PartnersPerSiteResult{
		ECDF:      stats.NewECDF(xs),
		FracOne:   float64(one) / float64(total),
		FracGE5:   float64(ge5) / float64(total),
		FracGE10:  float64(ge10) / float64(total),
		MaxCount:  maxC,
		SiteCount: len(xs),
	}
}

// ComboShare is one demand-partner combination's share (Figure 10).
type ComboShare struct {
	Combo []string // sorted slugs
	Key   string
	Sites int
	Share float64
}

// PartnerCombosMetric is Figure 10 over a site table: the partner list
// of each domain's first HB record. Combination keys are built at
// Result time — one sort+join per distinct site, not per visit, keeping
// the per-record fold cheap on multi-day crawls.
type PartnerCombosMetric struct {
	state
	siteView
	k int
}

// NewPartnerCombos returns an empty Figure-10 metric; k<=0 reports all.
func NewPartnerCombos(k int) *PartnerCombosMetric {
	m := &PartnerCombosMetric{siteView: ownSites(), k: k}
	return hold(m, (*param)(&m.k), &m.siteView)
}

// Name identifies the metric.
func (m *PartnerCombosMetric) Name() string { return "partner_combos" }

// NewShard returns a fresh empty accumulator with the same k.
func (m *PartnerCombosMetric) NewShard() Metric { return NewPartnerCombos(m.k) }

// Snapshot returns Result.
func (m *PartnerCombosMetric) Snapshot() any { return m.Result() }

// Result computes the combination shares over everything added. Sites
// whose first HB record listed no partners count toward the share
// denominator but form no combination.
func (m *PartnerCombosMetric) Result() []ComboShare {
	counts := map[string]int{}
	members := map[string][]string{}
	for _, s := range m.sites.hb {
		if len(s.partners) == 0 {
			continue
		}
		sorted := append([]string(nil), s.partners...)
		sort.Strings(sorted)
		key := strings.Join(sorted, "+")
		counts[key]++
		members[key] = sorted
	}
	total := len(m.sites.hb)
	out := make([]ComboShare, 0, len(counts))
	for key, n := range counts {
		out = append(out, ComboShare{
			Combo: members[key], Key: key, Sites: n,
			Share: float64(n) / float64(max(1, total)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sites != out[j].Sites {
			return out[i].Sites > out[j].Sites
		}
		return out[i].Key < out[j].Key
	})
	if m.k > 0 && len(out) > m.k {
		out = out[:m.k]
	}
	return out
}

// PartnerBidShare is one partner's share of observed bids within a facet
// (Figure 11).
type PartnerBidShare struct {
	Slug  string
	Bids  int
	Share float64
}

// PartnersPerFacetMetric accumulates Figure 11 incrementally: per-facet
// bid counts per partner, over every HB record (all days).
type PartnersPerFacetMetric struct {
	state
	k      int
	counts [3]map[string]int // in hb.Facets() order
	totals [3]int
}

// NewPartnersPerFacet returns an empty Figure-11 metric; k<=0 reports all.
func NewPartnersPerFacet(k int) *PartnersPerFacetMetric {
	m := &PartnersPerFacetMetric{k: k}
	acc := []accumulator{(*param)(&m.k)}
	for i := range m.counts {
		m.counts[i] = map[string]int{}
		acc = append(acc, (*tally[string, int])(&m.counts[i]), (*sum)(&m.totals[i]))
	}
	return hold(m, acc...)
}

// Name identifies the metric.
func (m *PartnersPerFacetMetric) Name() string { return "partners_per_facet" }

// Add folds one record in (non-HB and unknown-facet records are ignored).
func (m *PartnersPerFacetMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	f := facetIndex(r.FacetValue())
	if f < 0 {
		return
	}
	counts := m.counts[f]
	for _, a := range r.Auctions {
		for _, b := range a.Bids {
			counts[b.Bidder]++
			m.totals[f]++
		}
	}
}

// NewShard returns a fresh empty accumulator with the same k.
func (m *PartnersPerFacetMetric) NewShard() Metric { return NewPartnersPerFacet(m.k) }

// Snapshot returns Result.
func (m *PartnersPerFacetMetric) Snapshot() any { return m.Result() }

// Result computes the per-facet bid shares over everything added.
func (m *PartnersPerFacetMetric) Result() map[hb.Facet][]PartnerBidShare {
	out := make(map[hb.Facet][]PartnerBidShare, 3)
	for i, facet := range hb.Facets() {
		counts := m.counts[i]
		total := m.totals[i]
		shares := make([]PartnerBidShare, 0, len(counts))
		for slug, n := range counts {
			shares = append(shares, PartnerBidShare{
				Slug: slug, Bids: n, Share: float64(n) / float64(max(1, total)),
			})
		}
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].Bids != shares[j].Bids {
				return shares[i].Bids > shares[j].Bids
			}
			return shares[i].Slug < shares[j].Slug
		})
		if m.k > 0 && len(shares) > m.k {
			shares = shares[:m.k]
		}
		out[facet] = shares
	}
	return out
}

// facetIndex is f's position in hb.Facets(), or -1 for FacetUnknown.
func facetIndex(f hb.Facet) int { return slices.Index(hb.Facets(), f) }
