package analysis

import (
	"testing"

	"headerbid/internal/dataset"
)

// summaryRecords is a two-day dataset: a.example with HB on both days,
// b.example without.
func summaryRecords() []*dataset.SiteRecord {
	return []*dataset.SiteRecord{
		{
			Domain: "a.example", Rank: 1, VisitDay: 0, HB: true, Facet: "hybrid",
			Partners: []string{"dfp", "appnexus"},
			Winners:  []string{"appnexus"},
			Auctions: []dataset.AuctionRecord{
				{ID: "a1", AdUnit: "u1", Size: "300x250",
					Bids:   []dataset.BidRecord{{Bidder: "appnexus", CPM: 0.4}, {Bidder: "rubicon", CPM: 0.1, Late: true}},
					Winner: "appnexus", WinnerCPM: 0.4, Rendered: true},
			},
			TotalHBLatencyMS: 640,
			AdSlotsAuctioned: 1,
			Loaded:           true,
		},
		{
			Domain: "b.example", Rank: 2, VisitDay: 0, HB: false, Loaded: true,
		},
		{
			Domain: "a.example", Rank: 1, VisitDay: 1, HB: true, Facet: "hybrid",
			Partners: []string{"dfp", "appnexus"},
			Auctions: []dataset.AuctionRecord{{ID: "a2", AdUnit: "u1"}},
			Loaded:   true,
		},
	}
}

func TestSummarize(t *testing.T) {
	s := fold(NewSummary(), summaryRecords()).Summary()
	if s.SitesCrawled != 2 {
		t.Fatalf("sites = %d, want 2 (a.example deduped)", s.SitesCrawled)
	}
	if s.SitesWithHB != 1 {
		t.Fatalf("hb sites = %d", s.SitesWithHB)
	}
	if s.Auctions != 2 || s.Bids != 2 {
		t.Fatalf("auctions=%d bids=%d", s.Auctions, s.Bids)
	}
	// Partner count derives from Partners+Winners sets: dfp, appnexus.
	// rubicon appears only inside a bid, not as a contacted partner.
	if s.DemandPartners != 2 {
		t.Fatalf("partners = %d, want 2", s.DemandPartners)
	}
	if s.CrawlDays != 2 {
		t.Fatalf("days = %d", s.CrawlDays)
	}
	if s.AdoptionRate() != 0.5 {
		t.Fatalf("adoption = %v", s.AdoptionRate())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := fold(NewSummary(), nil).Summary()
	if s.SitesCrawled != 0 || s.AdoptionRate() != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummaryAccumulatorMatchesBatch(t *testing.T) {
	// A mixed multi-day dataset with repeats, shared partners and non-HB
	// sites: the incremental path must agree field-for-field with the
	// roll-up counted by hand, and so must a sharded merge.
	recs := []*dataset.SiteRecord{
		{Domain: "a.example", VisitDay: 0, HB: true, Partners: []string{"criteo", "rubicon"},
			Winners: []string{"criteo"}, Auctions: []dataset.AuctionRecord{{ID: "1", Bids: []dataset.BidRecord{{Bidder: "criteo"}, {Bidder: "rubicon"}}}}},
		{Domain: "b.example", VisitDay: 0},
		{Domain: "a.example", VisitDay: 1, HB: true, Partners: []string{"appnexus"},
			Auctions: []dataset.AuctionRecord{{ID: "2", Bids: []dataset.BidRecord{{Bidder: "appnexus"}}}}},
		{Domain: "c.example", VisitDay: 2, HB: true, Winners: []string{"dfp"}},
	}
	// a and c have HB; criteo, rubicon, appnexus and dfp are contacted or
	// win; two auctions carry three bids; days 0-2.
	want := dataset.Summary{SitesCrawled: 3, SitesWithHB: 2, Auctions: 2, Bids: 3, DemandPartners: 4, CrawlDays: 3}
	if got := fold(NewSummary(), recs).Summary(); got != want {
		t.Fatalf("accumulator = %+v, want %+v", got, want)
	}
	odd, even := NewSummary(), NewSummary()
	for i, r := range recs {
		if i%2 == 0 {
			even.Add(r)
		} else {
			odd.Add(r)
		}
	}
	merged := NewSummary()
	merged.Merge(odd)
	merged.Merge(even)
	if got := merged.Summary(); got != want {
		t.Fatalf("sharded merge = %+v, want %+v", got, want)
	}
	// Partial snapshots must be valid too (Summary() is not a finalizer).
	acc2 := NewSummary()
	acc2.Add(recs[0])
	if s := acc2.Summary(); s.SitesCrawled != 1 || s.SitesWithHB != 1 || s.CrawlDays != 1 {
		t.Fatalf("partial snapshot = %+v", s)
	}
	acc2.Add(recs[1])
	acc2.Add(recs[2])
	acc2.Add(recs[3])
	if got := acc2.Summary(); got != want {
		t.Fatalf("snapshot-then-continue diverged: %+v vs %+v", got, want)
	}
}
