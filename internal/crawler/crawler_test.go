package crawler

import (
	"testing"
	"time"

	"headerbid/internal/hb"
	"headerbid/internal/sitegen"
)

func smallWorld(t *testing.T, n int) *sitegen.World {
	t.Helper()
	cfg := sitegen.DefaultConfig(42)
	cfg.NumSites = n
	return sitegen.Generate(cfg)
}

func TestCrawlDetectsHB(t *testing.T) {
	w := smallWorld(t, 400)
	recs := CrawlWorld(w, DefaultOptions(7))
	if len(recs) != 400 {
		t.Fatalf("got %d records, want 400", len(recs))
	}

	// Every record should have loaded.
	var st Stats
	for _, r := range recs {
		st.Add(r)
	}
	if st.Loaded != 400 {
		t.Fatalf("loaded=%d, want 400", st.Loaded)
	}

	// Detection must agree exactly with ground truth: the detector claims
	// 100% precision on the libraries it models, and our world only uses
	// modeled libraries, so recall is 100% too.
	for _, r := range recs {
		s, ok := w.SiteByDomain(r.Domain)
		if !ok {
			t.Fatalf("unknown domain %s", r.Domain)
		}
		if r.HB != s.HB {
			t.Errorf("site %s rank=%d: detected HB=%v, ground truth %v (facet=%v)",
				s.Domain, s.Rank, r.HB, s.HB, s.Facet)
		}
		if s.HB && r.FacetValue() != s.Facet {
			t.Errorf("site %s: detected facet %v, ground truth %v", s.Domain, r.FacetValue(), s.Facet)
		}
	}
}

func TestCrawlLatenciesPlausible(t *testing.T) {
	w := smallWorld(t, 300)
	recs := CrawlWorld(w, DefaultOptions(7))
	var lat []float64
	for _, r := range recs {
		if r.HB && r.TotalHBLatencyMS > 0 {
			lat = append(lat, r.TotalHBLatencyMS)
		}
	}
	if len(lat) < 10 {
		t.Fatalf("too few HB latencies: %d", len(lat))
	}
	for _, l := range lat {
		if l < 1 || l > 60_000 {
			t.Errorf("implausible HB latency %.1fms", l)
		}
	}
}

func TestVisitDeterminism(t *testing.T) {
	w := smallWorld(t, 60)
	opts := DefaultOptions(9)
	var hbSite *sitegen.Site
	for _, s := range w.Sites {
		if s.HB && s.Facet == hb.FacetHybrid {
			hbSite = s
			break
		}
	}
	if hbSite == nil {
		t.Skip("no hybrid site in small world")
	}
	a := VisitSimulated(w, hbSite, 0, opts)
	b := VisitSimulated(w, hbSite, 0, opts)
	if a.TotalHBLatencyMS != b.TotalHBLatencyMS {
		t.Errorf("latency differs across identical visits: %.3f vs %.3f",
			a.TotalHBLatencyMS, b.TotalHBLatencyMS)
	}
	if len(a.Auctions) != len(b.Auctions) {
		t.Errorf("auction count differs: %d vs %d", len(a.Auctions), len(b.Auctions))
	}
	// Different days must be different samples (independent revisits).
	c := VisitSimulated(w, hbSite, 1, opts)
	if c.VisitDay != 1 {
		t.Errorf("day not recorded: %d", c.VisitDay)
	}
}

func TestCrawlMultiDay(t *testing.T) {
	w := smallWorld(t, 120)
	opts := DefaultOptions(3)
	opts.Days = 3
	recs := CrawlWorld(w, opts)
	maxDay, auctions, bids := -1, 0, 0
	for _, r := range recs {
		maxDay = max(maxDay, r.VisitDay)
		auctions += len(r.Auctions)
		for _, a := range r.Auctions {
			bids += len(a.Bids)
		}
	}
	if maxDay+1 != 3 {
		t.Fatalf("crawl days = %d, want 3", maxDay+1)
	}
	// Day >= 1 visits only HB sites.
	for _, r := range recs {
		if r.VisitDay > 0 && !r.HB {
			s, _ := w.SiteByDomain(r.Domain)
			if s != nil && !s.HB {
				t.Errorf("revisited non-HB site %s on day %d", r.Domain, r.VisitDay)
			}
		}
	}
	if auctions == 0 || bids == 0 {
		t.Fatalf("empty dataset: %d auctions, %d bids", auctions, bids)
	}
}

func TestCrawlTimingBudget(t *testing.T) {
	w := smallWorld(t, 150)
	start := time.Now()
	CrawlWorld(w, DefaultOptions(5))
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("150-site crawl took %s; the virtual clock should make this fast", d)
	}
}
