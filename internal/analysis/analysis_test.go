package analysis

import (
	"math"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
)

// fixtureRecords builds a small, fully hand-checkable dataset.
func fixtureRecords() []*dataset.SiteRecord {
	return []*dataset.SiteRecord{
		{ // server-side, DFP alone, rank 1
			Domain: "s1.example", Rank: 1, HB: true, Facet: "server",
			Partners: []string{"dfp"}, Winners: []string{"rubicon"},
			Auctions: []dataset.AuctionRecord{
				{ID: "x1", AdUnit: "h1", Size: "300x250",
					Bids: []dataset.BidRecord{{Bidder: "rubicon", CPM: 0.10, Source: "s2s", Size: "300x250"}}},
				{ID: "x2", AdUnit: "h2", Size: "728x90"},
			},
			TotalHBLatencyMS: 300, AdSlotsAuctioned: 2, Loaded: true,
			PartnerLatencyMS: map[string][]float64{"dfp": {300}},
		},
		{ // hybrid, dfp+appnexus+criteo, rank 600
			Domain: "h1.example", Rank: 600, HB: true, Facet: "hybrid",
			Partners: []string{"dfp", "appnexus", "criteo"},
			Auctions: []dataset.AuctionRecord{
				{ID: "y1", AdUnit: "u1", Size: "300x250",
					Bids: []dataset.BidRecord{
						{Bidder: "appnexus", CPM: 0.40, LatencyMS: 320, Size: "300x250"},
						{Bidder: "criteo", CPM: 0.20, LatencyMS: 190, Late: true, Size: "300x250"},
					},
					Winner: "appnexus", WinnerCPM: 0.40},
				{ID: "y2", AdUnit: "u2", Size: "120x600",
					Bids: []dataset.BidRecord{
						{Bidder: "appnexus", CPM: 0.90, LatencyMS: 330, Size: "120x600"},
					},
					Winner: "appnexus", WinnerCPM: 0.90},
			},
			TotalHBLatencyMS: 1100, AdSlotsAuctioned: 2, Loaded: true,
			PartnerLatencyMS: map[string][]float64{"appnexus": {320, 330}, "criteo": {190}},
		},
		{ // client, criteo alone, rank 20000
			Domain: "c1.example", Rank: 20000, HB: true, Facet: "client",
			Partners: []string{"criteo"},
			Auctions: []dataset.AuctionRecord{
				{ID: "z1", AdUnit: "u1", Size: "300x600",
					Bids: []dataset.BidRecord{
						{Bidder: "criteo", CPM: 0.60, LatencyMS: 180, Size: "300x600"},
					},
					Winner: "criteo", WinnerCPM: 0.60},
			},
			TotalHBLatencyMS: 450, AdSlotsAuctioned: 1, Loaded: true,
			PartnerLatencyMS: map[string][]float64{"criteo": {180}},
		},
		{ // non-HB
			Domain: "p1.example", Rank: 3, Loaded: true,
		},
	}
}

func TestAdoptionByRankBand(t *testing.T) {
	bands := fold(NewAdoptionByRankBand(), fixtureRecords()).Result()
	// Ranks 1, 3 and 600 all sit in the top band; the mid band is empty
	// and therefore omitted; rank 20000 forms the tail band.
	if len(bands) != 2 {
		t.Fatalf("bands = %d, want 2 (empty mid band omitted)", len(bands))
	}
	if bands[0].Sites != 3 || bands[0].HBSites != 2 ||
		math.Abs(bands[0].Adoption-2.0/3) > 1e-9 {
		t.Fatalf("top band = %+v", bands[0])
	}
	if bands[1].Sites != 1 || bands[1].HBSites != 1 {
		t.Fatalf("tail band = %+v", bands[1])
	}
}

func TestFacetBreakdown(t *testing.T) {
	shares := fold(NewFacetBreakdown(), fixtureRecords()).Result()
	got := map[hb.Facet]float64{}
	for _, s := range shares {
		got[s.Facet] = s.Share
	}
	third := 1.0 / 3
	for _, f := range hb.Facets() {
		if math.Abs(got[f]-third) > 1e-9 {
			t.Fatalf("share[%v] = %v, want 1/3", f, got[f])
		}
	}
}

func TestTopPartners(t *testing.T) {
	top := fold(NewTopPartners(0), fixtureRecords()).Result()
	if top[0].Slug != "criteo" && top[0].Slug != "dfp" {
		t.Fatalf("top = %+v", top)
	}
	byName := map[string]PartnerShare{}
	for _, p := range top {
		byName[p.Slug] = p
	}
	// dfp on 2 of 3 HB sites, criteo on 2, appnexus on 1.
	if byName["dfp"].Sites != 2 || math.Abs(byName["dfp"].Share-2.0/3) > 1e-9 {
		t.Fatalf("dfp = %+v", byName["dfp"])
	}
	if byName["appnexus"].Sites != 1 {
		t.Fatalf("appnexus = %+v", byName["appnexus"])
	}
	if len(fold(NewTopPartners(2), fixtureRecords()).Result()) != 2 {
		t.Fatal("k limit ignored")
	}
}

func TestPartnersPerSite(t *testing.T) {
	res := fold(NewPartnersPerSite(), fixtureRecords()).Result()
	if res.SiteCount != 3 {
		t.Fatalf("sites = %d", res.SiteCount)
	}
	if math.Abs(res.FracOne-2.0/3) > 1e-9 { // s1 and c1 have one partner
		t.Fatalf("fracOne = %v", res.FracOne)
	}
	if res.MaxCount != 3 {
		t.Fatalf("max = %d", res.MaxCount)
	}
}

func TestPartnerCombos(t *testing.T) {
	combos := fold(NewPartnerCombos(0), fixtureRecords()).Result()
	keys := map[string]int{}
	for _, c := range combos {
		keys[c.Key] = c.Sites
	}
	if keys["dfp"] != 1 || keys["criteo"] != 1 || keys["appnexus+criteo+dfp"] != 1 {
		t.Fatalf("combos = %v", keys)
	}
}

func TestPartnersPerFacet(t *testing.T) {
	byFacet := fold(NewPartnersPerFacet(0), fixtureRecords()).Result()
	server := byFacet[hb.FacetServer]
	if len(server) != 1 || server[0].Slug != "rubicon" || server[0].Share != 1 {
		t.Fatalf("server = %+v", server)
	}
	hybrid := byFacet[hb.FacetHybrid]
	if hybrid[0].Slug != "appnexus" || hybrid[0].Bids != 2 {
		t.Fatalf("hybrid = %+v", hybrid)
	}
}

func TestUniquePartners(t *testing.T) {
	if n := fold(NewUniquePartners(), fixtureRecords()).Result(); n != 4 { // dfp, appnexus, criteo, rubicon
		t.Fatalf("unique = %d", n)
	}
}

func TestLatencyCDF(t *testing.T) {
	res := fold(NewLatencyAccumulator(), fixtureRecords()).Result()
	if res.Sites != 3 {
		t.Fatalf("sites = %d", res.Sites)
	}
	if res.MedianMS != 450 {
		t.Fatalf("median = %v", res.MedianMS)
	}
	if math.Abs(res.FracOver1s-1.0/3) > 1e-9 {
		t.Fatalf("fracOver1s = %v", res.FracOver1s)
	}
}

func TestLatencyVsRank(t *testing.T) {
	bins := fold(NewLatencyVsRank(500), fixtureRecords()).Result()
	if len(bins) != 3 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Stats.Median != 300 { // rank 1 site
		t.Fatalf("bin0 = %+v", bins[0])
	}
}

func TestPartnerLatenciesAndExtremes(t *testing.T) {
	sums := fold(NewPartnerLatencies(), fixtureRecords()).Result()
	byName := map[string]PartnerLatencySummary{}
	for _, s := range sums {
		byName[s.Slug] = s
	}
	if byName["appnexus"].Samples != 2 || byName["appnexus"].Stats.Median != 325 {
		t.Fatalf("appnexus = %+v", byName["appnexus"])
	}
	ext := fold(NewPartnerLatencies(), fixtureRecords()).Extremes(partners.Default(), 2, 1)
	if len(ext.Fastest) != 2 || ext.Fastest[0].Slug != "criteo" {
		t.Fatalf("fastest = %+v", ext.Fastest)
	}
	if ext.Slowest[0].Slug != "appnexus" && ext.Slowest[0].Slug != "dfp" {
		t.Fatalf("slowest = %+v", ext.Slowest)
	}
	if len(ext.Top) != 2 || ext.Top[0].Slug != "dfp" {
		t.Fatalf("top = %+v (registry order should lead with dfp)", ext.Top)
	}
}

func TestLatencyVsPartnerCount(t *testing.T) {
	rows := fold(NewLatencyVsPartnerCount(15), fixtureRecords()).Result()
	byCount := map[int]CountLatency{}
	for _, r := range rows {
		byCount[r.Partners] = r
	}
	if byCount[1].Stats.N != 2 { // s1 + c1
		t.Fatalf("count1 = %+v", byCount[1])
	}
	if byCount[3].Stats.Median != 1100 {
		t.Fatalf("count3 = %+v", byCount[3])
	}
	if math.Abs(byCount[1].SiteShare-2.0/3) > 1e-9 {
		t.Fatalf("site share = %v", byCount[1].SiteShare)
	}
}

func TestLateBids(t *testing.T) {
	res := fold(NewLateBids(), fixtureRecords()).Result()
	if res.TotalAuctions != 4 { // auctions with >=1 bid: x1, y1, y2, z1
		t.Fatalf("total = %d", res.TotalAuctions)
	}
	if res.AuctionsWithLate != 1 {
		t.Fatalf("with late = %d", res.AuctionsWithLate)
	}
	if res.MedianLateShare != 50 { // y1: 1 of 2 bids late
		t.Fatalf("median late share = %v", res.MedianLateShare)
	}
	if res.FracOneLate != 1 {
		t.Fatalf("one-late = %v", res.FracOneLate)
	}
}

func TestLateBidsPerPartner(t *testing.T) {
	rows := fold(NewLateBidsPerPartner(0, 1), fixtureRecords()).Result()
	byName := map[string]PartnerLateShare{}
	for _, r := range rows {
		byName[r.Slug] = r
	}
	if byName["criteo"].LateShare != 0.5 { // 1 late of 2 client bids
		t.Fatalf("criteo = %+v", byName["criteo"])
	}
	if byName["appnexus"].LateShare != 0 {
		t.Fatalf("appnexus = %+v", byName["appnexus"])
	}
	if _, ok := byName["rubicon"]; ok {
		t.Fatal("s2s bid counted for lateness (unobservable)")
	}
}

func TestSlotsPerSite(t *testing.T) {
	res := fold(NewSlotsPerSite(), fixtureRecords()).Result()
	if res.ByFacet[hb.FacetServer].Quantile(0.5) != 2 {
		t.Fatalf("server slots = %v", res.ByFacet[hb.FacetServer].Quantile(0.5))
	}
	if res.FracOver20 != 0 {
		t.Fatalf("over20 = %v", res.FracOver20)
	}
}

func TestLatencyVsSlots(t *testing.T) {
	rows := fold(NewLatencyVsSlots(15), fixtureRecords()).Result()
	byCount := map[int]CountLatency{}
	for _, r := range rows {
		byCount[r.Partners] = r
	}
	if byCount[2].Stats.N != 2 { // s1 (300ms) and h1 (1100ms)
		t.Fatalf("2-slot sites = %+v", byCount[2])
	}
}

func TestSlotSizes(t *testing.T) {
	byFacet := fold(NewSlotSizes(0), fixtureRecords()).Result()
	hybrid := byFacet[hb.FacetHybrid]
	if len(hybrid) != 2 {
		t.Fatalf("hybrid sizes = %+v", hybrid)
	}
	for _, s := range hybrid {
		if s.Share != 0.5 {
			t.Fatalf("share = %v", s.Share)
		}
	}
}

func TestPriceCDF(t *testing.T) {
	res := fold(NewPriceCDF(), fixtureRecords()).Result()
	client := res.ByFacet[hb.FacetClient]
	if client.Len() != 1 || client.Quantile(0.5) != 0.60 {
		t.Fatalf("client prices = %v", client.Values())
	}
	if math.Abs(res.FracOverHalf-2.0/5) > 1e-9 { // 0.60 and 0.90 of 5 priced bids
		t.Fatalf("over half = %v", res.FracOverHalf)
	}
}

func TestPricePerSize(t *testing.T) {
	rows := fold(NewPricePerSize(1), fixtureRecords()).Result()
	if len(rows) == 0 {
		t.Fatal("no sizes")
	}
	// Ordered by area descending: 300x600 (180000) first.
	if rows[0].Size != (hb.Size{W: 300, H: 600}) {
		t.Fatalf("first size = %v", rows[0].Size)
	}
	for _, r := range rows {
		if r.Size == (hb.Size{W: 120, H: 600}) && r.Stats.Median != 0.90 {
			t.Fatalf("120x600 = %+v", r.Stats)
		}
	}
}

func TestPriceVsPopularity(t *testing.T) {
	bins := fold(NewPriceVsPopularity(partners.Default(), 10), fixtureRecords()).Result()
	if len(bins) == 0 {
		t.Fatal("no bins")
	}
	// All fixture bidders are top-10 popular -> single bin 0.
	if bins[0].Bin != 0 {
		t.Fatalf("bins = %+v", bins)
	}
}

func TestDedupeAcrossDays(t *testing.T) {
	recs := fixtureRecords()
	// Re-visit s1 on day 1: site-level analyses must not double count.
	recs = append(recs, &dataset.SiteRecord{
		Domain: "s1.example", Rank: 1, VisitDay: 1, HB: true, Facet: "server",
		Partners: []string{"dfp"}, Loaded: true,
	})
	res := fold(NewPartnersPerSite(), recs).Result()
	if res.SiteCount != 3 {
		t.Fatalf("dedupe failed: %d sites", res.SiteCount)
	}
	bands := fold(NewAdoptionByRankBand(), recs).Result()
	if bands[0].Sites != 3 {
		t.Fatalf("dedupe failed in bands: %+v", bands[0])
	}
}

func TestEmptyDatasetSafe(t *testing.T) {
	var empty []*dataset.SiteRecord
	_ = fold(NewFacetBreakdown(), empty).Result()
	_ = fold(NewTopPartners(5), empty).Result()
	_ = fold(NewPartnersPerSite(), empty).Result()
	_ = fold(NewPartnerCombos(5), empty).Result()
	_ = fold(NewLatencyAccumulator(), empty).Result()
	_ = fold(NewLateBids(), empty).Result()
	_ = fold(NewSlotsPerSite(), empty).Result()
	_ = fold(NewPriceCDF(), empty).Result()
	_ = fold(NewPricePerSize(1), empty).Result()
	// No panics is the assertion.
}
