package sitegen

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/hb"
	"headerbid/internal/rtb"
	"headerbid/internal/simnet"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

func ecoWorld(t *testing.T) (*World, *Ecosystem) {
	t.Helper()
	cfg := DefaultConfig(17)
	cfg.NumSites = 400
	w := Generate(cfg)
	return w, NewEcosystem(w)
}

func bidRequestFor(t *testing.T, site *Site, bidder string, tmax int) *webreq.Request {
	t.Helper()
	var imps []rtb.Impression
	for _, u := range site.AdUnits {
		imps = append(imps, rtb.Impression{
			ID:     u.Code,
			Banner: rtb.Banner{Format: []rtb.Format{{W: u.PrimarySize().W, H: u.PrimarySize().H}}},
		})
	}
	breq := rtb.BidRequest{
		ID: "t1", Imp: imps,
		Site: rtb.Site{Domain: site.Domain},
		TMax: tmax,
	}
	body, err := breq.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return bidPOST(string(body))
}

// bidPOST is a bid POST to appnexus whose body is the bytes body, as a
// request from outside the simulation carries it.
func bidPOST(body string) *webreq.Request {
	req := &webreq.Request{URL: "https://bid.adnxs.com/hb/v1/bid", Method: webreq.POST}
	req.SetBody(body)
	return req
}

func firstSiteWithFacet(w *World, f hb.Facet) *Site {
	for _, s := range w.HBSites() {
		if s.Facet == f {
			return s
		}
	}
	return nil
}

func TestHandleBidReturnsValidResponse(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetHybrid)
	p, _ := w.Registry.BySlug("appnexus")

	sawBid := false
	for trial := 0; trial < 80 && !sawBid; trial++ {
		status, body, service := eco.HandlePartner(p, bidRequestFor(t, site, "appnexus", 3000))
		if status != 200 {
			t.Fatalf("status = %d", status)
		}
		if service <= 0 {
			t.Fatal("no service time")
		}
		var resp rtb.BidResponse
		if err := rtb.DecodeBidResponse(body, &resp); err != nil {
			t.Fatalf("malformed response: %v", err)
		}
		for _, seat := range resp.SeatBid {
			if seat.Seat != "appnexus" {
				t.Fatalf("wrong seat %q", seat.Seat)
			}
			for _, b := range seat.Bid {
				sawBid = true
				if b.Price <= 0 || b.W <= 0 {
					t.Fatalf("bad bid %+v", b)
				}
			}
		}
	}
	if !sawBid {
		t.Fatal("partner never bid across 80 attempts (BidProb broken?)")
	}
}

func TestHandleBidMalformedBody(t *testing.T) {
	w, eco := ecoWorld(t)
	_ = w
	p, _ := w.Registry.BySlug("appnexus")
	status, _, _ := eco.HandlePartner(p, bidPOST("not json"))
	if status != 400 {
		t.Fatalf("status = %d, want 400", status)
	}
}

func TestHandleBidLatenessRespectsTMax(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetHybrid)
	// Atomx is calibrated with LateProb 0.97: nearly every response must
	// exceed the caller's TMax.
	p, _ := w.Registry.BySlug("atomx")
	late := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		_, _, service := eco.HandlePartner(p, bidRequestFor(t, site, "atomx", 1000))
		if service > time.Second {
			late++
		}
	}
	if late < trials*8/10 {
		t.Fatalf("atomx late %d/%d; profile says ~97%%", late, trials)
	}
}

func TestHandleHostedLines(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetServer)
	p, _ := w.Registry.BySlug(site.ServerPartner)

	var specs []string
	for _, u := range site.AdUnits {
		specs = append(specs, u.Code+"|"+u.PrimarySize().String())
	}
	req := &webreq.Request{
		URL: urlkit.WithQuery("https://hb."+p.Host+"/ssp/auction", urlkit.Query{
			{Key: "site", Value: site.Domain}, {Key: "slots", Value: strings.Join(specs, ",")},
		}),
		Method: webreq.POST,
	}
	status, body, service := eco.HandlePartner(p, req)
	if status != 200 || service <= 0 {
		t.Fatalf("status=%d service=%v", status, service)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != len(site.AdUnits) {
		t.Fatalf("lines = %d, want %d", len(lines), len(site.AdUnits))
	}
	for _, line := range lines {
		parts := strings.Split(line, "|")
		if len(parts) < 3 {
			t.Fatalf("malformed line %q", line)
		}
		switch parts[1] {
		case "hb":
			if !strings.Contains(parts[2], "hb_bidder=") || !strings.Contains(parts[2], "hb_source=s2s") {
				t.Fatalf("hb line missing params: %q", line)
			}
		case "house":
		default:
			t.Fatalf("unexpected channel %q", parts[1])
		}
	}
}

func TestHandleGampadComparesClientAndServerDemand(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetHybrid)
	p, _ := w.Registry.BySlug("dfp")

	u := site.AdUnits[0]
	// Client bid so high it must win whenever the slot fills via HB.
	req := &webreq.Request{
		URL: urlkit.WithQuery("https://securepubads.doubleclick.net/gampad/ads", urlkit.Query{
			{Key: hb.KeyBidder + "." + u.Code, Value: "appnexus"},
			{Key: hb.KeyPriceBuck + "." + u.Code, Value: "19.90"},
			{Key: "site", Value: site.Domain},
			{Key: "slots", Value: u.Code + "|" + u.PrimarySize().String()},
		}),
		Method: webreq.GET,
	}
	status, body, _ := eco.HandlePartner(p, req)
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(body, "hb_bidder=appnexus") || !strings.Contains(body, "hb_source=client") {
		t.Fatalf("client bid did not win: %q", body)
	}

	// Without client targeting the slot can only fill via s2s/direct/house.
	req2 := &webreq.Request{
		URL: urlkit.WithQuery("https://securepubads.doubleclick.net/gampad/ads", urlkit.Query{
			{Key: "site", Value: site.Domain},
			{Key: "slots", Value: u.Code + "|" + u.PrimarySize().String()},
		}),
		Method: webreq.GET,
	}
	_, body2, _ := eco.HandlePartner(p, req2)
	if strings.Contains(body2, "hb_source=client") {
		t.Fatalf("phantom client win: %q", body2)
	}
}

func TestHandleSiteServesDocumentAndAdServer(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetClient)

	status, body, _ := eco.HandleSite(site, &webreq.Request{
		URL: site.PageURL(), Method: webreq.GET,
	})
	if status != 200 || !strings.Contains(body, "<!DOCTYPE html>") {
		t.Fatalf("doc serve failed: %d", status)
	}

	u := site.AdUnits[0]
	status2, body2, _ := eco.HandleSite(site, &webreq.Request{
		URL: urlkit.WithQuery("https://adserver."+site.Domain+"/serve", urlkit.Query{
			{Key: hb.KeyBidder + "." + u.Code, Value: "criteo"},
			{Key: hb.KeyPriceBuck + "." + u.Code, Value: "19.90"},
			{Key: "slots", Value: u.Code + "|" + u.PrimarySize().String()},
		}),
		Method: webreq.GET,
	})
	if status2 != 200 {
		t.Fatalf("ad server status = %d", status2)
	}
	if !strings.Contains(body2, u.Code+"|hb|") {
		t.Fatalf("high client bid did not fill via hb: %q", body2)
	}
}

// TestClientAdServerCaseCollidingTargeting: per-slot targeting keys
// that differ only in case resolve like hb.ScanTargeting — the
// lower-case spelling wins, though the upper-case one sorts first — on
// every request.
func TestClientAdServerCaseCollidingTargeting(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetClient)
	u := site.AdUnits[0]
	url := urlkit.WithQuery("https://adserver."+site.Domain+"/serve", urlkit.Query{
		{Key: "HB_BIDDER." + u.Code, Value: "appnexus"},
		{Key: hb.KeyBidder + "." + u.Code, Value: "criteo"},
		{Key: hb.KeyPriceBuck + "." + u.Code, Value: "19.90"},
		{Key: "slots", Value: u.Code + "|" + u.PrimarySize().String()},
	})
	for i := 0; i < 50; i++ {
		_, body, _ := eco.HandleSite(site, &webreq.Request{URL: url, Method: webreq.GET})
		if !strings.Contains(body, u.Code+"|hb|") || !strings.Contains(body, hb.KeyBidder+"=criteo") {
			t.Fatalf("request %d: want the hb fill by the lower-case spelling's bidder, got %q", i, body)
		}
	}
}

// TestInstallSimnetRegistersEverything: a visit installed on a network
// resolves its site and every shared host (84 partners, the creative
// host, the CDNs), and nothing else, and serves the page end to end.
func TestInstallSimnetRegistersEverything(t *testing.T) {
	w, _ := ecoWorld(t)
	sched := clock.NewScheduler(time.Time{})
	net := simnet.New(sched, 1)
	site := w.HBSites()[0]
	var b VisitBinding
	w.InstallVisit(net, site, &b)
	if len(w.sharedTargets()) < 84+3 {
		t.Fatalf("shared hosts = %d", len(w.sharedTargets()))
	}
	for key := range w.sharedTargets() {
		if _, ok := b.ResolveCall(key); !ok {
			t.Fatalf("shared host %s does not resolve", key)
		}
	}
	other := w.Sites[0]
	if other == site {
		other = w.Sites[1]
	}
	if _, ok := b.ResolveCall(urlkit.RegistrableDomain(other.Domain)); ok {
		t.Fatalf("unvisited site %s resolves", other.Domain)
	}
	// Fetch a real page through the network end to end.
	env := net.Env()
	var resp *webreq.Response
	env.Fetch(&webreq.Request{ID: 1, URL: site.PageURL(), Method: webreq.GET}, func(r *webreq.Response) {
		resp = r
	})
	sched.Run()
	if resp == nil || !resp.OK() || !strings.Contains(resp.Body, site.Domain) {
		t.Fatalf("page fetch through simnet failed: %+v", resp)
	}
}

func TestBidPricesScaleWithSlotSize(t *testing.T) {
	w, eco := ecoWorld(t)
	site := firstSiteWithFacet(w, hb.FacetClient)
	p, _ := w.Registry.BySlug("appnexus")

	collect := func(size hb.Size) []float64 {
		var prices []float64
		for trial := 0; trial < 400; trial++ {
			breq := rtb.BidRequest{
				ID:   "t",
				Imp:  []rtb.Impression{{ID: "s", Banner: rtb.Banner{Format: []rtb.Format{{W: size.W, H: size.H}}}}},
				Site: rtb.Site{Domain: site.Domain},
				TMax: 60000,
			}
			body, _ := breq.AppendJSON(nil)
			_, respBody, _ := eco.HandlePartner(p, bidPOST(string(body)))
			var resp rtb.BidResponse
			json.Unmarshal([]byte(respBody), &resp)
			for _, seat := range resp.SeatBid {
				for _, b := range seat.Bid {
					prices = append(prices, b.Price)
				}
			}
		}
		return prices
	}
	big := collect(hb.SizeWideSkyscraper) // 120x600, factor 3.1
	small := collect(hb.SizeMobileSlim)   // 300x50, factor 0.027
	if len(big) < 10 || len(small) < 10 {
		t.Skip("not enough bids sampled")
	}
	if mean(big) <= mean(small)*10 {
		t.Fatalf("size price scaling too weak: big=%.4f small=%.4f", mean(big), mean(small))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestCreativeAndCDNHandlers(t *testing.T) {
	_, eco := ecoWorld(t)
	status, body, service := eco.HandleCreative(&webreq.Request{URL: "https://creatives.example/render?slot=x"})
	if status != 200 || body == "" || service <= 0 {
		t.Fatalf("creative handler: %d %q %v", status, body, service)
	}
	status2, _, _ := eco.HandleCDN(&webreq.Request{URL: PrebidCDN})
	if status2 != 200 {
		t.Fatalf("cdn handler: %d", status2)
	}
}

func TestWinAndPixelBeacons(t *testing.T) {
	w, eco := ecoWorld(t)
	p, _ := w.Registry.BySlug("rubicon")
	status, _, _ := eco.HandlePartner(p, &webreq.Request{URL: "https://bid.rubiconproject.com/win?x=1"})
	if status != 204 {
		t.Fatalf("win beacon status = %d", status)
	}
	status2, _, _ := eco.HandlePartner(p, &webreq.Request{URL: "https://sync.rubiconproject.com/pixel"})
	if status2 != 204 {
		t.Fatalf("pixel status = %d", status2)
	}
}

func benchBidRequest(site *Site) *webreq.Request {
	imps := make([]rtb.Impression, 0, len(site.AdUnits))
	for _, u := range site.AdUnits {
		imps = append(imps, rtb.Impression{
			ID:     u.Code,
			Banner: rtb.Banner{Format: []rtb.Format{{W: u.PrimarySize().W, H: u.PrimarySize().H}}},
		})
	}
	breq := rtb.BidRequest{ID: "b1", Imp: imps, Site: rtb.Site{Domain: site.Domain}, TMax: 3000}
	body, err := breq.AppendJSON(nil)
	if err != nil {
		panic(err)
	}
	return bidPOST(string(body))
}

// BenchmarkHandlePartnerBid measures the client-side bid endpoint, the
// hottest Ecosystem handler: decode, internal auction, price, encode.
func BenchmarkHandlePartnerBid(b *testing.B) {
	cfg := DefaultConfig(17)
	cfg.NumSites = 400
	w := Generate(cfg)
	eco := NewEcosystem(w)
	site := firstSiteWithFacet(w, hb.FacetHybrid)
	p, _ := w.Registry.BySlug("appnexus")
	req := benchBidRequest(site)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _, _ := eco.HandlePartner(p, req)
		if status != 200 {
			b.Fatalf("status %d", status)
		}
	}
}

// BenchmarkHandlePartnerBidParallel exposes contention on the ecosystem
// mutex: livenet serves one shared Ecosystem from many goroutines, so
// work done while holding e.mu serializes the whole server.
func BenchmarkHandlePartnerBidParallel(b *testing.B) {
	cfg := DefaultConfig(17)
	cfg.NumSites = 400
	w := Generate(cfg)
	eco := NewEcosystem(w)
	site := firstSiteWithFacet(w, hb.FacetHybrid)
	p, _ := w.Registry.BySlug("appnexus")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := benchBidRequest(site)
		for pb.Next() {
			status, _, _ := eco.HandlePartner(p, req)
			if status != 200 {
				b.Fatalf("status %d", status)
			}
		}
	})
}
