package report

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/partners"
	"headerbid/internal/sitegen"
	"headerbid/internal/wire"
)

// mixedFirstRecords is a 300-site two-day crawl plus the records only a
// fold of several crawls of one world emits: a day-1 HB record for
// every third site found without HB on day 0, and a day-2 non-HB record
// for every fourth HB site. For those domains the first record and the
// first HB record are different records.
func mixedFirstRecords(t *testing.T) []*dataset.SiteRecord {
	t.Helper()
	cfg := sitegen.DefaultConfig(3)
	cfg.NumSites = 300
	opts := crawler.DefaultOptions(3)
	opts.Days = 2
	recs := crawler.CrawlWorld(sitegen.Generate(cfg), opts)

	var template *dataset.SiteRecord
	for _, r := range recs {
		if r.HB && len(r.Partners) > 0 && r.AdSlotsAuctioned > 0 {
			template = r
			break
		}
	}
	if template == nil {
		t.Fatal("crawl has no HB record with partners and slots")
	}
	var extra []*dataset.SiteRecord
	for i, r := range recs {
		if r.VisitDay != 0 {
			continue
		}
		switch {
		case !r.HB && i%3 == 0:
			c := *template
			c.Domain, c.Rank, c.VisitDay = r.Domain, r.Rank, 1
			extra = append(extra, &c)
		case r.HB && i%4 == 0:
			extra = append(extra, &dataset.SiteRecord{Domain: r.Domain, Rank: r.Rank, VisitDay: 2, Loaded: true})
		}
	}
	if len(extra) == 0 {
		t.Fatal("no mixed first records")
	}
	return append(recs, extra...)
}

// TestFiguresViewsMatchStandaloneMetrics: the eight first-visit sections
// of a figure report read one shared site table, and each must report
// exactly what its standalone metric, with a table of its own, reports
// over the same records — after one in-order fold, after sharded merges
// in permuted order, and after an encode/decode round trip.
func TestFiguresViewsMatchStandaloneMetrics(t *testing.T) {
	recs := mixedFirstRecords(t)
	reg := partners.Default()
	views := []struct {
		name       string
		standalone analysis.Metric
		of         func(*Figures) analysis.Metric
	}{
		{"summary", analysis.NewSummary(), func(f *Figures) analysis.Metric { return f.summary }},
		{"adoption_by_rank_band", analysis.NewAdoptionByRankBand(), func(f *Figures) analysis.Metric { return f.adoption }},
		{"facet_breakdown", analysis.NewFacetBreakdown(), func(f *Figures) analysis.Metric { return f.facets }},
		{"top_partners", analysis.NewTopPartners(12), func(f *Figures) analysis.Metric { return f.topPartners }},
		{"partners_per_site", analysis.NewPartnersPerSite(), func(f *Figures) analysis.Metric { return f.perSite }},
		{"partner_combos", analysis.NewPartnerCombos(15), func(f *Figures) analysis.Metric { return f.combos }},
		{"latency_vs_partner_count", analysis.NewLatencyVsPartnerCount(15), func(f *Figures) analysis.Metric { return f.latVsPartners }},
		{"slots_per_site", analysis.NewSlotsPerSite(), func(f *Figures) analysis.Metric { return f.slotsPerSite }},
	}
	for _, v := range views {
		fold(v.standalone, recs)
	}
	check := func(label string, f *Figures) {
		t.Helper()
		for _, v := range views {
			if got, want := v.of(f).Snapshot(), v.standalone.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s view diverged from the standalone metric:\ngot  %+v\nwant %+v", label, v.name, got, want)
			}
		}
	}

	inOrder := fold(NewFigures(reg), recs)
	check("in-order fold", inOrder)

	for _, n := range []int{2, 3, 7} {
		rng := rand.New(rand.NewSource(int64(n)))
		root := NewFigures(reg)
		shards := make([]*Figures, n)
		for i := range shards {
			shards[i] = root.NewShard().(*Figures)
		}
		for _, r := range recs {
			shards[rng.Intn(n)].Add(r)
		}
		for _, i := range rng.Perm(n) {
			root.Merge(shards[i])
		}
		check(fmt.Sprintf("%d-way merge", n), root)
	}

	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	inOrder.EncodeState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	decoded := NewFigures(reg)
	r := wire.NewReader(bytes.NewReader(buf.Bytes()))
	if err := decoded.DecodeState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	check("encode/decode round trip", decoded)
}
