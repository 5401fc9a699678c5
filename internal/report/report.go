// Package report renders the analysis results as the text tables and
// ASCII series the benchmark harness and cmd/hbreport print — the same
// rows the paper's tables and figures report, in a diffable plain form.
package report

import (
	"fmt"
	"io"
	"strings"

	"headerbid/internal/analysis"
	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/stats"
)

// Writer renders report sections to an io.Writer.
type Writer struct {
	W io.Writer
}

// New creates a report writer.
func New(w io.Writer) *Writer { return &Writer{W: w} }

func (r *Writer) printf(format string, args ...any) {
	fmt.Fprintf(r.W, format, args...)
}

// Section prints a section header.
func (r *Writer) Section(title string) {
	r.printf("\n== %s ==\n", title)
}

// Table1 renders the dataset summary.
func (r *Writer) Table1(s dataset.Summary) {
	r.Section("Table 1: collected data summary")
	r.printf("%-36s %d\n", "# of websites crawled", s.SitesCrawled)
	r.printf("%-36s %d (%.2f%%)\n", "# of websites with HB", s.SitesWithHB, 100*s.AdoptionRate())
	r.printf("%-36s %d\n", "# of auctions detected", s.Auctions)
	r.printf("%-36s %d\n", "# of bids detected", s.Bids)
	r.printf("%-36s %d\n", "# of competing Demand Partners", s.DemandPartners)
	r.printf("%-36s %d\n", "# days of crawling", s.CrawlDays)
}

// AdoptionBands renders the §3.2 rank-band adoption rates.
func (r *Writer) AdoptionBands(bands []analysis.RankBandAdoption) {
	r.Section("HB adoption by Alexa rank band (§3.2)")
	for _, b := range bands {
		r.printf("rank %6d-%-6d  sites=%-6d hb=%-5d adoption=%.2f%%\n",
			b.Lo, b.Hi, b.Sites, b.HBSites, 100*b.Adoption)
	}
}

// FacetBreakdown renders §4.6.
func (r *Writer) FacetBreakdown(shares []analysis.FacetShare) {
	r.Section("Facet breakdown (§4.6)")
	for _, s := range shares {
		r.printf("%-16s %6d sites  %6.2f%%\n", s.Facet, s.Sites, 100*s.Share)
	}
}

// Figure8 renders top demand partners.
func (r *Writer) Figure8(top []analysis.PartnerShare) {
	r.Section("Figure 8: top Demand Partners (% of HB websites)")
	for _, p := range top {
		r.printf("%-16s %6.2f%%  %s\n", p.Slug, 100*p.Share, bar(p.Share, 40))
	}
}

// Figure9 renders the partners-per-site CDF.
func (r *Writer) Figure9(res analysis.PartnersPerSiteResult) {
	r.Section("Figure 9: Demand Partners per website (ECDF)")
	r.printf("sites=%d  P(=1)=%.1f%%  P(>=5)=%.1f%%  P(>=10)=%.1f%%  max=%d\n",
		res.SiteCount, 100*res.FracOne, 100*res.FracGE5, 100*res.FracGE10, res.MaxCount)
	r.cdfRow(res.ECDF, []float64{1, 2, 3, 5, 10, 15, 20}, "%.0f partners")
}

// Figure10 renders partner combinations.
func (r *Writer) Figure10(combos []analysis.ComboShare) {
	r.Section("Figure 10: most frequent Demand Partner combinations")
	for _, c := range combos {
		r.printf("%-48s %6.2f%% (%d sites)\n", c.Key, 100*c.Share, c.Sites)
	}
}

// Figure11 renders per-facet partner bid shares.
func (r *Writer) Figure11(byFacet map[hb.Facet][]analysis.PartnerBidShare) {
	r.Section("Figure 11: top partners per HB facet (% of bids)")
	for _, f := range hb.Facets() {
		r.printf("-- %s --\n", f)
		for _, p := range byFacet[f] {
			r.printf("  %-16s %6.2f%% (%d bids)\n", p.Slug, 100*p.Share, p.Bids)
		}
	}
}

// Figure12 renders the latency CDF.
func (r *Writer) Figure12(res analysis.LatencyCDFResult) {
	r.Section("Figure 12: total HB latency per website (ECDF)")
	r.printf("sites=%d  median=%.0fms  >1s=%.1f%%  >3s=%.1f%%  >5s=%.1f%%\n",
		res.Sites, res.MedianMS, 100*res.FracOver1s, 100*res.FracOver3s, 100*res.FracOver5s)
	r.cdfRow(res.ECDF, []float64{100, 250, 500, 1000, 2000, 3000, 5000, 10000}, "%.0fms")
}

// Figure13 renders latency vs rank bins.
func (r *Writer) Figure13(bins []stats.BinSummary) {
	r.Section("Figure 13: HB latency vs publisher rank (bins of 500)")
	for _, b := range bins {
		r.printf("rank %6d-%-6d  %s\n", b.Lo+1, b.Hi+1, boxRow(b.Stats, "ms"))
	}
}

// Figure14 renders fastest/top/slowest partner latencies.
func (r *Writer) Figure14(res analysis.PartnerLatencyExtremes) {
	r.Section("Figure 14: fastest / top-market / slowest Demand Partner latencies")
	r.printf("-- fastest --\n")
	for _, p := range res.Fastest {
		r.printf("  %-16s %s\n", p.Slug, boxRow(p.Stats, "ms"))
	}
	r.printf("-- top market share --\n")
	for _, p := range res.Top {
		r.printf("  %-16s %s\n", p.Slug, boxRow(p.Stats, "ms"))
	}
	r.printf("-- slowest --\n")
	for _, p := range res.Slowest {
		r.printf("  %-16s %s\n", p.Slug, boxRow(p.Stats, "ms"))
	}
}

// Figure15 renders latency vs partner count.
func (r *Writer) Figure15(rows []analysis.CountLatency) {
	r.Section("Figure 15: HB latency vs number of Demand Partners")
	for _, c := range rows {
		r.printf("%2d partners  %s  sites=%.1f%%\n",
			c.Partners, boxRow(c.Stats, "ms"), 100*c.SiteShare)
	}
}

// Figure16 renders latency vs popularity bins.
func (r *Writer) Figure16(bins []stats.BinSummary) {
	r.Section("Figure 16: partner latency vs popularity rank (bins of 10)")
	for _, b := range bins {
		r.printf("rank %2d-%-3d  %s  span=%.0fms\n",
			b.Lo+1, b.Hi+1, boxRow(b.Stats, "ms"), b.Stats.WhiskerSpan())
	}
}

// Figure17 renders the late-bid CDF.
func (r *Writer) Figure17(res analysis.LateBidsResult) {
	r.Section("Figure 17: late bids per auction (ECDF over auctions with late bids)")
	r.printf("auctions=%d with-late=%d (%.1f%%)  median-late-share=%.0f%%  p90=%.0f%%\n",
		res.TotalAuctions, res.AuctionsWithLate,
		100*float64(res.AuctionsWithLate)/float64(max(1, res.TotalAuctions)),
		res.MedianLateShare, res.P90LateShare)
	r.printf("one-late=%.0f%%  two-plus=%.0f%%  four-plus=%.0f%% (of auctions with late bids)\n",
		100*res.FracOneLate, 100*res.FracTwoPlus, 100*res.FracFourPlus)
	r.cdfRow(res.ECDF, []float64{20, 40, 50, 60, 80, 100}, "%.0f%% late")
}

// Figure18 renders per-partner late shares.
func (r *Writer) Figure18(rows []analysis.PartnerLateShare) {
	r.Section("Figure 18: late bids per Demand Partner (% of their bids)")
	for _, p := range rows {
		r.printf("%-16s %6.1f%% late (%d/%d bids)\n", p.Slug, 100*p.LateShare, p.LateBids, p.Bids)
	}
}

// Figure19 renders slots-per-site CDFs.
func (r *Writer) Figure19(res analysis.SlotsPerSiteResult) {
	r.Section("Figure 19: auctioned ad-slots per website, per facet (ECDF)")
	for _, f := range hb.Facets() {
		e, ok := res.ByFacet[f]
		if !ok {
			continue
		}
		r.printf("%-16s median=%.0f p90=%.0f  ", f, e.Quantile(0.5), e.Quantile(0.9))
		r.cdfRowInline(e, []float64{1, 2, 5, 10, 20})
	}
	r.printf("sites auctioning >20 slots: %.1f%%\n", 100*res.FracOver20)
}

// Figure20 renders latency vs slot count.
func (r *Writer) Figure20(rows []analysis.CountLatency) {
	r.Section("Figure 20: HB latency vs auctioned ad-slots")
	for _, c := range rows {
		r.printf("%2d slots  %s (sites=%d)\n", c.Partners, boxRow(c.Stats, "ms"), c.Sites)
	}
}

// Figure21 renders slot-size shares per facet.
func (r *Writer) Figure21(byFacet map[hb.Facet][]analysis.SizeShare) {
	r.Section("Figure 21: ad-slot dimensions per facet (% of slots)")
	for _, f := range hb.Facets() {
		r.printf("-- %s --\n", f)
		for _, s := range byFacet[f] {
			r.printf("  %-9s %6.2f%%  %s\n", s.Size, 100*s.Share, bar(s.Share, 30))
		}
	}
}

// Figure22 renders price CDFs per facet.
func (r *Writer) Figure22(res analysis.PriceCDFResult) {
	r.Section("Figure 22: bid prices per facet (ECDF, USD CPM)")
	for _, f := range hb.Facets() {
		e, ok := res.ByFacet[f]
		if !ok {
			continue
		}
		r.printf("%-16s n=%-7d median=%.4f p75=%.4f p95=%.4f\n",
			f, e.Len(), e.Quantile(0.5), e.Quantile(0.75), e.Quantile(0.95))
	}
	r.printf("bids above 0.5 CPM: %.1f%%\n", 100*res.FracOverHalf)
}

// Figure23 renders prices per slot size.
func (r *Writer) Figure23(rows []analysis.SizePrice) {
	r.Section("Figure 23: bid price per ad-slot dimension (sorted by area)")
	for _, s := range rows {
		r.printf("%-9s median=%.5f CPM  p25=%.5f p75=%.5f (n=%d)\n",
			s.Size, s.Stats.Median, s.Stats.P25, s.Stats.P75, s.Bids)
	}
}

// Figure24 renders prices vs popularity bins.
func (r *Writer) Figure24(bins []stats.BinSummary) {
	r.Section("Figure 24: bid price vs partner popularity (bins of 10)")
	for _, b := range bins {
		r.printf("rank %2d-%-3d  median=%.4f p25=%.4f p75=%.4f p95=%.4f CPM\n",
			b.Lo+1, b.Hi+1, b.Stats.Median, b.Stats.P25, b.Stats.P75, b.Stats.P95)
	}
}

// Traffic renders the §7.3 network-overhead summary.
func (r *Writer) Traffic(t analysis.TrafficSummary) {
	r.Section("Network overhead (§7.3)")
	r.printf("HB visits analyzed: %d\n", t.Sites)
	r.printf("bid requests/visit  %s\n", boxRow(t.BidRequests, "req"))
	r.printf("HB-related/visit    %s\n", boxRow(t.HBRelated, "req"))
	r.printf("total requests/visit %s\n", boxRow(t.Total, "req"))
	for _, f := range hb.Facets() {
		if v, ok := t.MeanByFacet[f]; ok {
			r.printf("mean HB-related requests, %-16s %.1f\n", f.String()+":", v)
		}
	}
	if t.AmplificationVsWaterfall > 0 {
		r.printf("bid-request amplification vs waterfall: %.2fx\n", t.AmplificationVsWaterfall)
	}
}

// Comparison renders the HB vs waterfall experiment.
func (r *Writer) Comparison(c analysis.ProtocolComparison) {
	r.Section("HB vs waterfall latency (headline comparison)")
	r.printf("sites=%d\n", c.Sites)
	r.printf("HB        %s\n", boxRow(c.HBLatency, "ms"))
	r.printf("waterfall %s\n", boxRow(c.WaterfallLatency, "ms"))
	r.printf("median ratio HB/waterfall = %.2fx   p90 ratio = %.2fx\n", c.MedianRatio, c.P90Ratio)
	r.printf("waterfall mean revenue left on table: %.4f CPM/slot\n", c.RevenueLossMean)
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func (r *Writer) cdfRow(e *stats.ECDF, xs []float64, format string) {
	if e == nil || e.Len() == 0 {
		r.printf("(no samples)\n")
		return
	}
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf(format+"→%.0f%%", x, 100*e.P(x)))
	}
	r.printf("CDF: %s\n", strings.Join(parts, "  "))
}

func (r *Writer) cdfRowInline(e *stats.ECDF, xs []float64) {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("≤%.0f:%.0f%%", x, 100*e.P(x)))
	}
	r.printf("%s\n", strings.Join(parts, " "))
}

func boxRow(b stats.Box, unit string) string {
	return fmt.Sprintf("p5=%.0f p25=%.0f median=%.0f p75=%.0f p95=%.0f %s (n=%d)",
		b.P5, b.P25, b.Median, b.P75, b.P95, unit, b.N)
}

func bar(frac float64, width int) string {
	n := int(frac * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
