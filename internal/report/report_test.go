package report

import (
	"bytes"
	"strings"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/dataset"
	"headerbid/internal/partners"
	"headerbid/internal/stats"
)

func fixture() []*dataset.SiteRecord {
	return []*dataset.SiteRecord{
		{
			Domain: "a.example", Rank: 1, HB: true, Facet: "hybrid",
			Partners: []string{"dfp", "appnexus"},
			Auctions: []dataset.AuctionRecord{
				{ID: "x", AdUnit: "u1", Size: "300x250",
					Bids:   []dataset.BidRecord{{Bidder: "appnexus", CPM: 0.4, LatencyMS: 300}},
					Winner: "appnexus", WinnerCPM: 0.4},
			},
			TotalHBLatencyMS: 700, AdSlotsAuctioned: 1, Loaded: true,
			PartnerLatencyMS: map[string][]float64{"appnexus": {300}},
		},
		{
			Domain: "b.example", Rank: 2, HB: true, Facet: "server",
			Partners: []string{"dfp"},
			Auctions: []dataset.AuctionRecord{
				{ID: "y", AdUnit: "h1", Size: "728x90",
					Bids: []dataset.BidRecord{{Bidder: "rubicon", CPM: 0.1, Source: "s2s"}}},
			},
			TotalHBLatencyMS: 320, AdSlotsAuctioned: 1, Loaded: true,
		},
		{Domain: "c.example", Rank: 3, Loaded: true},
	}
}

// fold adds every record to m in order and returns m.
func fold[M analysis.Metric](m M, recs []*dataset.SiteRecord) M {
	for _, r := range recs {
		m.Add(r)
	}
	return m
}

func render(t *testing.T, f func(*Writer)) string {
	t.Helper()
	var buf bytes.Buffer
	f(New(&buf))
	return buf.String()
}

func TestTable1Rendering(t *testing.T) {
	out := render(t, func(w *Writer) { w.Table1(fold(analysis.NewSummary(), fixture()).Summary()) })
	for _, want := range []string{"websites crawled", "3", "websites with HB", "auctions detected"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFullReportRendersEverySection(t *testing.T) {
	var buf bytes.Buffer
	fold(NewFigures(partners.Default()), fixture()).Render(&buf)
	out := buf.String()
	sections := []string{
		"Table 1", "rank band", "Facet breakdown",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12",
		"Figure 13", "Figure 14", "Figure 15", "Figure 16", "Figure 17",
		"Figure 18", "Figure 19", "Figure 20", "Figure 21", "Figure 22",
		"Figure 23", "Figure 24",
	}
	for _, s := range sections {
		if !strings.Contains(out, s) {
			t.Errorf("full report missing section %q", s)
		}
	}
}

func TestFigure12Markers(t *testing.T) {
	out := render(t, func(w *Writer) { w.Figure12(fold(analysis.NewLatencyAccumulator(), fixture()).Result()) })
	if !strings.Contains(out, "median=") || !strings.Contains(out, ">3s=") {
		t.Fatalf("latency markers missing:\n%s", out)
	}
}

func TestComparisonRendering(t *testing.T) {
	out := render(t, func(w *Writer) {
		w.Comparison(analysis.ProtocolComparison{
			Sites:            10,
			HBLatency:        stats.Box{Median: 600, N: 10},
			WaterfallLatency: stats.Box{Median: 200, N: 10},
			MedianRatio:      3.0,
			P90Ratio:         12.0,
		})
	})
	if !strings.Contains(out, "3.00x") || !strings.Contains(out, "waterfall") {
		t.Fatalf("comparison output:\n%s", out)
	}
}

func TestEmptyCDFHandled(t *testing.T) {
	out := render(t, func(w *Writer) {
		w.Figure9(analysis.NewPartnersPerSite().Result())
	})
	if !strings.Contains(out, "no samples") && !strings.Contains(out, "P(=1)") {
		t.Fatalf("empty CDF crashed or vanished:\n%s", out)
	}
}

func TestBarClamped(t *testing.T) {
	if bar(2.0, 10) != strings.Repeat("#", 10) {
		t.Fatal("bar not clamped high")
	}
	if bar(-1, 10) != "" {
		t.Fatal("bar not clamped low")
	}
}
