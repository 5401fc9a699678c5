package snapshot

import (
	"headerbid/internal/analysis"
	"headerbid/internal/partners"
	"headerbid/internal/report"
)

// Codec is the serializable-metric contract shard files are built from:
// a Metric whose accumulator state round-trips byte-exactly through the
// wire format. See analysis.Codec for the full contract.
type Codec = analysis.Codec

// builders maps every stable metric name to a constructor producing an
// empty accumulator ready for DecodeState. Constructor arguments are
// placeholders only — configuration parameters (top-k cutoffs, bin
// widths, sample floors) travel inside the encoded state and overwrite
// them on decode. Registry-backed metrics get partners.Default(), the
// one registry the figure pipeline uses.
//
// A name, once shipped in a shard file, is part of the snapshot format:
// renaming or removing one is a format change and must bump
// FormatVersion.
var builders = map[string]func() Codec{
	"summary":                  func() Codec { return analysis.NewSummary() },
	"adoption_by_rank_band":    func() Codec { return analysis.NewAdoptionByRankBand() },
	"facet_breakdown":          func() Codec { return analysis.NewFacetBreakdown() },
	"top_partners":             func() Codec { return analysis.NewTopPartners(12) },
	"unique_partners":          func() Codec { return analysis.NewUniquePartners() },
	"partners_per_site":        func() Codec { return analysis.NewPartnersPerSite() },
	"partner_combos":           func() Codec { return analysis.NewPartnerCombos(15) },
	"partners_per_facet":       func() Codec { return analysis.NewPartnersPerFacet(10) },
	"latency_cdf":              func() Codec { return analysis.NewLatencyAccumulator() },
	"latency_vs_rank":          func() Codec { return analysis.NewLatencyVsRank(500) },
	"partner_latencies":        func() Codec { return analysis.NewPartnerLatencies() },
	"latency_vs_partner_count": func() Codec { return analysis.NewLatencyVsPartnerCount(15) },
	"latency_vs_popularity":    func() Codec { return analysis.NewLatencyVsPopularity(partners.Default(), 10) },
	"late_bids":                func() Codec { return analysis.NewLateBids() },
	"late_bids_per_partner":    func() Codec { return analysis.NewLateBidsPerPartner(25, 3) },
	"slots_per_site":           func() Codec { return analysis.NewSlotsPerSite() },
	"latency_vs_slots":         func() Codec { return analysis.NewLatencyVsSlots(15) },
	"slot_sizes":               func() Codec { return analysis.NewSlotSizes(10) },
	"price_cdf":                func() Codec { return analysis.NewPriceCDF() },
	"price_per_size":           func() Codec { return analysis.NewPricePerSize(5) },
	"price_vs_popularity":      func() Codec { return analysis.NewPriceVsPopularity(partners.Default(), 10) },
	"traffic":                  func() Codec { return analysis.NewTraffic(0) },
	"degradation":              func() Codec { return analysis.NewDegradation() },
	"figure_report":            func() Codec { return report.NewFigures(partners.Default()) },
}

// New returns an empty accumulator for a registered metric name, ready
// for DecodeState, or false for a name this build does not know.
func New(name string) (Codec, bool) {
	b, ok := builders[name]
	if !ok {
		return nil, false
	}
	return b(), true
}
