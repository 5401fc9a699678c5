package analysis

import (
	"math"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/sitegen"
)

func trafficFixture() []*dataset.SiteRecord {
	return []*dataset.SiteRecord{
		{ // client-side fan-out: 5 partners, 1 ad-server call
			Domain: "c.example", Rank: 1, HB: true, Facet: "client", Loaded: true,
			Traffic: dataset.TrafficRecord{
				BidRequests: 5, AdServer: 1, Creatives: 2, Beacons: 6, Scripts: 3, Other: 2,
			},
		},
		{ // hosted: one call does everything
			Domain: "s.example", Rank: 2, HB: true, Facet: "server", Loaded: true,
			Traffic: dataset.TrafficRecord{
				HostedCalls: 1, Creatives: 3, Beacons: 2, Scripts: 2, Other: 1,
			},
		},
		{ // non-HB page: excluded
			Domain: "p.example", Rank: 3, Loaded: true,
			Traffic: dataset.TrafficRecord{Scripts: 2, Other: 5},
		},
	}
}

func TestTrafficSummary(t *testing.T) {
	ts := fold(NewTraffic(2.0), trafficFixture()).Result()
	if ts.Sites != 2 {
		t.Fatalf("sites = %d", ts.Sites)
	}
	if ts.BidRequests.Mean != 2.5 { // (5+0)/2
		t.Fatalf("bid req mean = %v", ts.BidRequests.Mean)
	}
	// HB-related: client 5+1+2+6=14, server 1+3+2=6.
	if ts.HBRelated.Mean != 10 {
		t.Fatalf("hb-related mean = %v", ts.HBRelated.Mean)
	}
	if ts.MeanByFacet[hb.FacetClient] != 14 || ts.MeanByFacet[hb.FacetServer] != 6 {
		t.Fatalf("per-facet = %v", ts.MeanByFacet)
	}
	// Fan-out per round: (5+1)/2 = 3 requests; waterfall walks 2 passes.
	if math.Abs(ts.AmplificationVsWaterfall-1.5) > 1e-9 {
		t.Fatalf("amplification = %v", ts.AmplificationVsWaterfall)
	}
}

func TestTrafficEmptyAndNoBaseline(t *testing.T) {
	ts := fold(NewTraffic(2), nil).Result()
	if ts.Sites != 0 || ts.AmplificationVsWaterfall != 0 {
		t.Fatalf("empty summary = %+v", ts)
	}
	ts2 := fold(NewTraffic(0), trafficFixture()).Result()
	if ts2.AmplificationVsWaterfall != 0 {
		t.Fatal("no baseline should yield zero amplification")
	}
}

func TestTrafficRecordSums(t *testing.T) {
	tr := dataset.TrafficRecord{
		BidRequests: 1, HostedCalls: 2, AdServer: 3, Creatives: 4,
		Beacons: 5, Scripts: 6, Other: 7,
	}
	if tr.Total() != 28 {
		t.Fatalf("total = %d", tr.Total())
	}
	if tr.HBRelated() != 15 {
		t.Fatalf("hb-related = %d", tr.HBRelated())
	}
}

func TestMeanWaterfallPassesPositive(t *testing.T) {
	// Covered end-to-end in the bench; here just the contract on a tiny
	// world: at least one pass per site, bounded by chain length.
	cfg := sitegen.DefaultConfig(3)
	cfg.NumSites = 300
	w := sitegen.Generate(cfg)
	passes := MeanWaterfallPasses(w, 3)
	if passes < 1 {
		t.Fatalf("mean passes = %v", passes)
	}
	if passes > 25 {
		t.Fatalf("mean passes = %v implausible", passes)
	}
}
