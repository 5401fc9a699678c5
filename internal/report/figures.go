package report

import (
	"fmt"
	"io"

	"headerbid/internal/analysis"
	"headerbid/internal/dataset"
	"headerbid/internal/partners"
	"headerbid/internal/wire"
)

// Figures is the complete streaming figure report: one mergeable
// accumulator per dataset-derived section of the paper, bundled as a
// single analysis.Metric. Attach it to a live crawl (per-worker shards,
// merged at run end) or fold a JSONL stream into it record by record —
// either way the full report renders without the record slice ever being
// materialized, and the output is byte-identical regardless of worker
// count.
//
// The section parameters (top-k cutoffs, bin widths, sample floors) are
// fixed to the ones the paper's figures use.
//
// The eight first-visit sections (Table 1, §3.2, §4.6, Figures 8, 9, 10,
// 15 and 19) are views over one site table, so each record's domain is
// added, merged and encoded once for all of them.
type Figures struct {
	reg   *partners.Registry
	sites *analysis.SiteTable

	summary       *analysis.SummaryMetric
	adoption      *analysis.AdoptionByRankBandMetric
	facets        *analysis.FacetBreakdownMetric
	topPartners   *analysis.TopPartnersMetric
	perSite       *analysis.PartnersPerSiteMetric
	combos        *analysis.PartnerCombosMetric
	perFacet      *analysis.PartnersPerFacetMetric
	latency       *analysis.LatencyAccumulator
	latVsRank     *analysis.LatencyVsRankMetric
	partnerLat    *analysis.PartnerLatenciesMetric
	latVsPartners *analysis.LatencyVsPartnerCountMetric
	latVsPop      *analysis.LatencyVsPopularityMetric
	lateBids      *analysis.LateBidsMetric
	latePerPart   *analysis.LateBidsPerPartnerMetric
	slotsPerSite  *analysis.SlotsPerSiteMetric
	latVsSlots    *analysis.LatencyVsSlotsMetric
	slotSizes     *analysis.SlotSizesMetric
	priceCDF      *analysis.PriceCDFMetric
	pricePerSize  *analysis.PricePerSizeMetric
	priceVsPop    *analysis.PriceVsPopularityMetric
	traffic       *analysis.TrafficMetric

	// all lists every accumulator besides the site table in a fixed
	// order for Add/Merge fan-out: the six pure site-table views are not
	// in it, and the summary and Figure 15 fold only their per-record
	// state. Of its members only the summary counts non-HB records;
	// every other one self-filters on r.HB, which is what lets Add skip
	// them for non-HB records.
	all []analysis.Metric
}

// NewFigures returns an empty figure-report accumulator rendering with
// the given partner registry (popularity ranks, market-share ordering).
func NewFigures(reg *partners.Registry) *Figures {
	f := &Figures{
		reg:           reg,
		sites:         analysis.NewSiteTable(),
		summary:       analysis.NewSummary(),
		adoption:      analysis.NewAdoptionByRankBand(),
		facets:        analysis.NewFacetBreakdown(),
		topPartners:   analysis.NewTopPartners(12),
		perSite:       analysis.NewPartnersPerSite(),
		combos:        analysis.NewPartnerCombos(15),
		perFacet:      analysis.NewPartnersPerFacet(10),
		latency:       analysis.NewLatencyAccumulator(),
		latVsRank:     analysis.NewLatencyVsRank(500),
		partnerLat:    analysis.NewPartnerLatencies(),
		latVsPartners: analysis.NewLatencyVsPartnerCount(15),
		latVsPop:      analysis.NewLatencyVsPopularity(reg, 10),
		lateBids:      analysis.NewLateBids(),
		latePerPart:   analysis.NewLateBidsPerPartner(25, 3),
		slotsPerSite:  analysis.NewSlotsPerSite(),
		latVsSlots:    analysis.NewLatencyVsSlots(15),
		slotSizes:     analysis.NewSlotSizes(10),
		priceCDF:      analysis.NewPriceCDF(),
		pricePerSize:  analysis.NewPricePerSize(5),
		priceVsPop:    analysis.NewPriceVsPopularity(reg, 10),
		traffic:       analysis.NewTraffic(0),
	}
	f.sites.Share(f.summary, f.adoption, f.facets, f.topPartners, f.perSite,
		f.combos, f.latVsPartners, f.slotsPerSite)
	f.all = []analysis.Metric{
		f.summary, f.perFacet, f.latency, f.latVsRank, f.partnerLat,
		f.latVsPartners, f.latVsPop, f.lateBids, f.latePerPart,
		f.latVsSlots, f.slotSizes, f.priceCDF, f.pricePerSize,
		f.priceVsPop, f.traffic,
	}
	return f
}

// Name identifies the composite metric.
func (f *Figures) Name() string { return "figure_report" }

// Add folds one record into every section. Non-HB records only touch
// the site table and Table 1's counters; every other member ignores
// them, so the ~86% non-HB majority of a paper-calibrated crawl skips
// 14 interface dispatches per record.
func (f *Figures) Add(r *dataset.SiteRecord) {
	f.sites.Add(r)
	if !r.HB {
		f.summary.Add(r)
		return
	}
	for _, m := range f.all {
		m.Add(r)
	}
}

// NewShard returns a fresh empty figure set with the same registry.
func (f *Figures) NewShard() analysis.Metric { return NewFigures(f.reg) }

// Merge folds a shard in, section by section.
func (f *Figures) Merge(other analysis.Metric) {
	o, ok := other.(*Figures)
	if !ok {
		panic(fmt.Sprintf("report: cannot merge %T into *Figures", other))
	}
	f.sites.Merge(o.sites)
	for i, m := range f.all {
		m.Merge(o.all[i])
	}
}

// Snapshot returns the accumulator itself; render it with Render.
//
//hbvet:allow metriclaws Figures is a composite view over sub-metrics; Render needs the live accumulator, and callers treat it as read-only
func (f *Figures) Snapshot() any { return f }

// EncodeState serializes the site table, then every accumulator in the
// fixed f.all order. The accumulator set and order are part of the
// snapshot format: changing either is a format change and must bump
// snapshot.FormatVersion.
func (f *Figures) EncodeState(w *wire.Writer) {
	f.sites.EncodeState(w)
	for _, m := range f.all {
		m.(analysis.Codec).EncodeState(w)
	}
}

// DecodeState replaces every section's state with the serialized one.
func (f *Figures) DecodeState(r *wire.Reader) error {
	if err := f.sites.DecodeState(r); err != nil {
		return err
	}
	for _, m := range f.all {
		if err := m.(analysis.Codec).DecodeState(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// Summary returns the Table-1 roll-up over everything folded in.
func (f *Figures) Summary() dataset.Summary { return f.summary.Summary() }

// Render writes the full figure report over everything folded in.
func (f *Figures) Render(w io.Writer) { New(w).Figures(f) }

// Figures renders every dataset-derived section in paper order from a
// streaming figure set; the world-dependent sections (Figure 4, the
// waterfall comparison) are rendered separately by their dedicated
// commands.
func (r *Writer) Figures(f *Figures) {
	r.Table1(f.summary.Summary())
	r.AdoptionBands(f.adoption.Result())
	r.FacetBreakdown(f.facets.Result())
	r.Figure8(f.topPartners.Result())
	r.Figure9(f.perSite.Result())
	r.Figure10(f.combos.Result())
	r.Figure11(f.perFacet.Result())
	r.Figure12(f.latency.Result())
	r.Figure13(f.latVsRank.Result())
	r.Figure14(f.partnerLat.Extremes(f.reg, 10, 5))
	r.Figure15(f.latVsPartners.Result())
	r.Figure16(f.latVsPop.Result())
	r.Figure17(f.lateBids.Result())
	r.Figure18(f.latePerPart.Result())
	r.Figure19(f.slotsPerSite.Result())
	r.Figure20(f.latVsSlots.Result())
	r.Figure21(f.slotSizes.Result())
	r.Figure22(f.priceCDF.Result())
	r.Figure23(f.pricePerSize.Result())
	r.Figure24(f.priceVsPop.Result())
	r.Traffic(f.traffic.Result())
}
