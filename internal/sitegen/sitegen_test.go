package sitegen

import (
	"math"
	"sort"
	"strings"
	"testing"

	"headerbid/internal/hb"
	"headerbid/internal/htmlmeta"
	"headerbid/internal/pagert"
	"headerbid/internal/rng"
)

func genWorld(t *testing.T, n int, seed int64) *World {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.NumSites = n
	return Generate(cfg)
}

func TestGenerateDeterministic(t *testing.T) {
	a := genWorld(t, 500, 9)
	b := genWorld(t, 500, 9)
	for i := range a.Sites {
		sa, sb := a.Sites[i], b.Sites[i]
		if sa.Domain != sb.Domain || sa.HB != sb.HB || sa.Facet != sb.Facet ||
			len(sa.Partners) != len(sb.Partners) || len(sa.AdUnits) != len(sb.AdUnits) {
			t.Fatalf("site %d differs across identical generations", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := genWorld(t, 500, 1)
	b := genWorld(t, 500, 2)
	same := 0
	for i := range a.Sites {
		if a.Sites[i].HB == b.Sites[i].HB {
			same++
		}
	}
	if same == len(a.Sites) {
		t.Fatal("different seeds produced identical HB assignment")
	}
}

func TestAdoptionByRankBand(t *testing.T) {
	w := genWorld(t, 35000, 3)
	count := func(lo, hi int) (sites, hbN int) {
		for _, s := range w.Sites {
			if s.Rank >= lo && s.Rank <= hi {
				sites++
				if s.HB {
					hbN++
				}
			}
		}
		return
	}
	top, topHB := count(1, 5000)
	mid, midHB := count(5001, 15000)
	tail, tailHB := count(15001, 35000)
	topRate := float64(topHB) / float64(top)
	midRate := float64(midHB) / float64(mid)
	tailRate := float64(tailHB) / float64(tail)
	if topRate < 0.19 || topRate > 0.24 {
		t.Errorf("top-5k adoption %.3f outside the paper's 20-23%% band", topRate)
	}
	if midRate < 0.11 || midRate > 0.18 {
		t.Errorf("mid adoption %.3f outside 12-17%%", midRate)
	}
	if tailRate < 0.09 || tailRate > 0.13 {
		t.Errorf("tail adoption %.3f outside 10-12%%", tailRate)
	}
	overall := float64(topHB+midHB+tailHB) / 35000
	if math.Abs(overall-0.1428) > 0.02 {
		t.Errorf("overall adoption %.4f, paper 14.28%%", overall)
	}
}

func TestFacetShares(t *testing.T) {
	w := genWorld(t, 20000, 4)
	counts := map[hb.Facet]int{}
	total := 0
	for _, s := range w.HBSites() {
		counts[s.Facet]++
		total++
	}
	share := func(f hb.Facet) float64 { return float64(counts[f]) / float64(total) }
	if math.Abs(share(hb.FacetServer)-0.48) > 0.03 {
		t.Errorf("server share %.3f, want ≈0.48", share(hb.FacetServer))
	}
	if math.Abs(share(hb.FacetHybrid)-0.347) > 0.03 {
		t.Errorf("hybrid share %.3f, want ≈0.347", share(hb.FacetHybrid))
	}
	if math.Abs(share(hb.FacetClient)-0.173) > 0.03 {
		t.Errorf("client share %.3f, want ≈0.173", share(hb.FacetClient))
	}
}

func TestPartnersPerSiteDistribution(t *testing.T) {
	w := genWorld(t, 20000, 5)
	one, ge5, ge10, maxN, total := 0, 0, 0, 0, 0
	for _, s := range w.HBSites() {
		n := len(s.Partners)
		total++
		if n == 1 {
			one++
		}
		if n >= 5 {
			ge5++
		}
		if n >= 10 {
			ge10++
		}
		if n > maxN {
			maxN = n
		}
	}
	fr := func(n int) float64 { return float64(n) / float64(total) }
	if fr(one) < 0.48 || fr(one) > 0.60 {
		t.Errorf("single-partner share %.3f; paper >50%%", fr(one))
	}
	if fr(ge5) < 0.15 || fr(ge5) > 0.27 {
		t.Errorf(">=5 partners %.3f; paper ≈20%%", fr(ge5))
	}
	if fr(ge10) < 0.02 || fr(ge10) > 0.08 {
		t.Errorf(">=10 partners %.3f; paper ≈5%%", fr(ge10))
	}
	if maxN > 20 {
		t.Errorf("max partners %d; paper caps at 20", maxN)
	}
}

func TestDFPPresence(t *testing.T) {
	w := genWorld(t, 20000, 6)
	dfp, total := 0, 0
	for _, s := range w.HBSites() {
		total++
		for _, p := range s.Partners {
			if p == "dfp" {
				dfp++
				break
			}
		}
	}
	share := float64(dfp) / float64(total)
	if share < 0.72 || share > 0.88 {
		t.Errorf("DFP presence %.3f; paper ≈80%%", share)
	}
}

func TestDFPAloneCombination(t *testing.T) {
	w := genWorld(t, 20000, 7)
	alone, total := 0, 0
	for _, s := range w.HBSites() {
		total++
		if len(s.Partners) == 1 && s.Partners[0] == "dfp" {
			alone++
		}
	}
	share := float64(alone) / float64(total)
	if math.Abs(share-0.44) > 0.07 {
		t.Errorf("DFP-alone share %.3f; paper 48%%", share)
	}
}

func TestFacetPartnerStructure(t *testing.T) {
	w := genWorld(t, 3000, 8)
	for _, s := range w.HBSites() {
		switch s.Facet {
		case hb.FacetServer:
			if len(s.Partners) != 1 || s.ServerPartner == "" || s.Partners[0] != s.ServerPartner {
				t.Fatalf("server site malformed: %+v", s)
			}
		case hb.FacetHybrid:
			if s.Partners[0] != "dfp" || len(s.Partners) < 2 {
				t.Fatalf("hybrid site must be dfp+bidders: %v", s.Partners)
			}
			for _, p := range s.Partners[1:] {
				if p == "dfp" {
					t.Fatalf("dfp duplicated as bidder: %v", s.Partners)
				}
			}
		case hb.FacetClient:
			for _, p := range s.Partners {
				if p == "dfp" {
					t.Fatalf("client site uses dfp: %v", s.Partners)
				}
			}
		}
		// All partner slugs resolve.
		for _, p := range s.Partners {
			if _, ok := w.Registry.BySlug(p); !ok {
				t.Fatalf("unknown partner %q on %s", p, s.Domain)
			}
		}
	}
}

func TestSlotDistribution(t *testing.T) {
	w := genWorld(t, 20000, 9)
	var counts []int
	over20 := 0
	for _, s := range w.HBSites() {
		n := len(s.AdUnits)
		if n == 0 {
			t.Fatalf("HB site %s has no ad units", s.Domain)
		}
		counts = append(counts, n)
		if n > 20 {
			over20++
		}
	}
	sort.Ints(counts)
	median := counts[len(counts)/2]
	p90 := counts[int(0.9*float64(len(counts)))]
	if median < 2 || median > 6 {
		t.Errorf("median slots %d; paper 2-6", median)
	}
	if p90 < 5 || p90 > 12 {
		t.Errorf("p90 slots %d; paper 5-11", p90)
	}
	frac := float64(over20) / float64(len(counts))
	if frac < 0.01 || frac > 0.06 {
		t.Errorf(">20-slot fraction %.3f; paper ≈3%%", frac)
	}
}

func TestMultiDeviceDuplication(t *testing.T) {
	w := genWorld(t, 8000, 10)
	found := false
	for _, s := range w.HBSites() {
		for _, u := range s.AdUnits {
			if strings.Contains(u.Code, "-tablet") || strings.Contains(u.Code, "-mobile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no multi-device duplicated slots generated")
	}
}

func TestTimeoutDistribution(t *testing.T) {
	w := genWorld(t, 10000, 11)
	threeS, total, long := 0, 0, 0
	for _, s := range w.HBSites() {
		if s.Rank <= 2000 {
			continue // top publishers curate their deadlines down
		}
		total++
		if s.TimeoutMS == 3000 {
			threeS++
		}
		if s.TimeoutMS >= 15000 {
			long++
		}
		if s.TimeoutMS < 1000 || s.TimeoutMS > 20000 {
			t.Fatalf("timeout %d out of range", s.TimeoutMS)
		}
	}
	if frac := float64(threeS) / float64(total); frac < 0.5 || frac > 0.65 {
		t.Errorf("3s-default share %.3f among uncurated publishers; the industry default should dominate", frac)
	}
	if long == 0 {
		t.Error("no long-timeout publishers (paper saw 20s rounds)")
	}
}

func TestTopRankTimeoutsCurated(t *testing.T) {
	w := genWorld(t, 10000, 11)
	var topLong, topN int
	for _, s := range w.HBSites() {
		if s.Rank > 2000 {
			continue
		}
		topN++
		if s.TimeoutMS > 2000 {
			topLong++
		}
	}
	if topN == 0 {
		t.Skip("no top-rank HB sites")
	}
	// ~70% of top publishers tune deadlines to <=2s.
	if frac := float64(topLong) / float64(topN); frac > 0.5 {
		t.Errorf("top-rank long-timeout share %.3f; curation should push most under 2s", frac)
	}
}

func TestPageHTMLStructure(t *testing.T) {
	w := genWorld(t, 300, 12)
	var hbSite, plainSite *Site
	for _, s := range w.Sites {
		if s.HB && hbSite == nil {
			hbSite = s
		}
		if !s.HB && plainSite == nil {
			plainSite = s
		}
	}
	html := w.PageHTML(hbSite)
	if !strings.Contains(html, pagert.ConfigMarker) {
		t.Fatal("HB page missing inline config")
	}
	switch hbSite.Facet {
	case hb.FacetClient:
		if !strings.Contains(html, "prebid.js") {
			t.Fatal("client page missing prebid include")
		}
	case hb.FacetServer:
		if !strings.Contains(html, "gpt.js") || strings.Contains(html, PrebidCDN) {
			t.Fatal("server page script mix wrong")
		}
	case hb.FacetHybrid:
		if !strings.Contains(html, "prebid.js") || !strings.Contains(html, "gpt.js") {
			t.Fatal("hybrid page missing a library")
		}
	}
	// Config must parse back.
	cfg, err := (*pagert.ConfigMemo)(nil).Extract(htmlmeta.Parse(html))
	if err != nil || cfg == nil || cfg.Site != hbSite.Domain {
		t.Fatalf("embedded config unusable: %v %v", cfg, err)
	}
	plain := w.PageHTML(plainSite)
	if strings.Contains(plain, pagert.ConfigMarker) {
		t.Fatal("non-HB page carries HB config")
	}
}

func TestInfraQualityDecreasesWithRank(t *testing.T) {
	w := genWorld(t, 30000, 13)
	var topQ, tailQ float64
	var topN, tailN int
	for _, s := range w.Sites {
		if s.Rank <= 1000 {
			topQ += s.InfraQuality
			topN++
		}
		if s.Rank > 29000 {
			tailQ += s.InfraQuality
			tailN++
		}
	}
	if topQ/float64(topN) <= tailQ/float64(tailN) {
		t.Fatalf("infra quality not rank-correlated: top %.3f tail %.3f",
			topQ/float64(topN), tailQ/float64(tailN))
	}
}

func TestSizePriceFactorOrdering(t *testing.T) {
	// Figure 23 ordering: 120x600 most expensive, 300x250 reference,
	// 300x50 cheapest.
	if SizePriceFactor(hb.SizeWideSkyscraper) <= SizePriceFactor(hb.SizeMediumRectangle) {
		t.Fatal("120x600 should outprice 300x250")
	}
	if SizePriceFactor(hb.SizeMobileSlim) >= SizePriceFactor(hb.SizeMobileBanner) {
		t.Fatal("300x50 should be the cheapest")
	}
	// Unknown sizes scale by area within clamps.
	f := SizePriceFactor(hb.Size{W: 1, H: 1})
	if f < 0.02-1e-9 || f > 0.03 {
		t.Fatalf("tiny unknown size factor %v", f)
	}
	big := SizePriceFactor(hb.Size{W: 5000, H: 5000})
	if big > 3.5+1e-9 {
		t.Fatalf("huge unknown size factor %v not clamped", big)
	}
}

func TestFacetPriceFactorOrdering(t *testing.T) {
	// Figure 22: client > hybrid > server.
	if !(FacetPriceFactor(hb.FacetClient) > FacetPriceFactor(hb.FacetHybrid) &&
		FacetPriceFactor(hb.FacetHybrid) > FacetPriceFactor(hb.FacetServer)) {
		t.Fatal("facet price ordering violates Figure 22")
	}
	if FacetPriceFactor(hb.FacetUnknown) != 1.0 {
		t.Fatal("unknown facet factor should be neutral")
	}
}

func TestSampleSlotSizeKnownCatalog(t *testing.T) {
	r := rng.New(1)
	for _, f := range hb.Facets() {
		for i := 0; i < 200; i++ {
			sz := sampleSlotSize(r, f)
			if sz.IsZero() {
				t.Fatalf("zero size sampled for %v", f)
			}
		}
	}
	if sampleSlotSize(r, hb.FacetUnknown) != hb.SizeMediumRectangle {
		t.Fatal("unknown facet should default to 300x250")
	}
}
