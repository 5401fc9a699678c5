package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/clock"
	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// testPage builds a page on a trivial env so events/requests can be fed
// to an attached detector directly — the detector only observes the bus
// and the inspector, so this drives every classification path precisely.
type nullEnv struct{ sched *clock.Scheduler }

func (n *nullEnv) Now() time.Time                                       { return n.sched.Now() }
func (n *nullEnv) After(d time.Duration, fn func())                     { n.sched.After(d, fn) }
func (n *nullEnv) Post(fn func())                                       { n.sched.Post(fn) }
func (n *nullEnv) Fetch(req *webreq.Request, cb func(*webreq.Response)) {}

func newTestPage(url string) (*browser.Page, *Detector, *clock.Scheduler) {
	sched := clock.NewScheduler(time.Time{})
	page := browser.NewPage(&nullEnv{sched: sched}, browser.DefaultOptions())
	page.URL = url
	det := Attach(page, partners.Default())
	return page, det, sched
}

// feedExchange records a request+response pair through the inspector.
func feedExchange(p *browser.Page, at time.Time, lat time.Duration, method webreq.Method, url, body string) {
	req := &webreq.Request{URL: url, Method: method, Sent: at}
	req.SetBody(body)
	req.ID = p.Inspector.NextID()
	p.Inspector.SawRequest(req)
	p.Inspector.SawResponse(&webreq.Response{
		RequestID: req.ID, Status: 200, Received: at.Add(lat),
	})
}

func at(ms int) time.Time { return clock.Epoch.Add(time.Duration(ms) * time.Millisecond) }

// feedClientAuction simulates the event+request trace of a client-side
// prebid auction on the page's bus/inspector.
func feedClientAuction(p *browser.Page, adServerHost string) {
	bus := p.Bus
	bus.Emit(events.Event{Type: events.AuctionInit, Time: at(0), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	bus.Emit(events.Event{Type: events.RequestBids, Time: at(0), Library: "prebid.js"})
	bus.Emit(events.Event{Type: events.BidRequested, Time: at(1), AuctionID: "a1", AdUnit: "u1", Bidder: "appnexus", Library: "prebid.js"})
	feedExchange(p, at(1), 200*time.Millisecond, webreq.POST,
		"https://bid.adnxs.com/hb/v1/bid?bidder=appnexus", `{"id":"x"}`)
	bus.Emit(events.Event{Type: events.BidResponse, Time: at(201), AuctionID: "a1", AdUnit: "u1",
		Bidder: "appnexus", CPM: 0.4, Size: hb.SizeMediumRectangle, Library: "prebid.js"})
	bus.Emit(events.Event{Type: events.AuctionEnd, Time: at(210), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	// Ad-server exchange with hb_* targeting.
	feedExchange(p, at(211), 80*time.Millisecond, webreq.GET,
		"https://"+adServerHost+"/serve?slots=u1%7C300x250&hb_bidder.u1=appnexus&hb_pb.u1=0.40", "")
	bus.Emit(events.Event{Type: events.BidWon, Time: at(291), AuctionID: "a1", AdUnit: "u1",
		Bidder: "appnexus", CPM: 0.4, Size: hb.SizeMediumRectangle, Library: "prebid.js"})
	bus.Emit(events.Event{Type: events.SlotRenderEnded, Time: at(300), AdUnit: "u1",
		Size: hb.SizeMediumRectangle, Library: "gpt.js"})
}

func TestClassifyClientSide(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	feedClientAuction(p, "adserver.pub.example")
	o := det.Observation()
	if !o.HB || o.Facet != hb.FacetClient {
		t.Fatalf("facet = %v (HB=%v), want client", o.Facet, o.HB)
	}
	if len(o.Auctions) != 1 || len(o.Auctions[0].Bids) != 1 {
		t.Fatalf("auctions = %+v", o.Auctions)
	}
	if o.Auctions[0].Winner == nil || o.Auctions[0].Winner.Bidder != "appnexus" {
		t.Fatalf("winner = %+v", o.Auctions[0].Winner)
	}
	if !o.Auctions[0].Rendered {
		t.Fatal("render not linked to auction")
	}
	if len(o.PartnersSeen) != 1 || o.PartnersSeen[0] != "appnexus" {
		t.Fatalf("partners = %v", o.PartnersSeen)
	}
	// Total latency: first bid request (1ms) -> ad-server response (291ms).
	if o.TotalHBLatency != 290*time.Millisecond {
		t.Fatalf("latency = %v, want 290ms", o.TotalHBLatency)
	}
}

func TestClassifyHybridViaGampad(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	// Same client trace, but the ad server is DFP's gampad endpoint.
	p.Bus.Emit(events.Event{Type: events.AuctionInit, Time: at(0), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	feedExchange(p, at(1), 150*time.Millisecond, webreq.POST,
		"https://bid.adnxs.com/hb/v1/bid?bidder=appnexus", `{}`)
	p.Bus.Emit(events.Event{Type: events.BidResponse, Time: at(151), AuctionID: "a1", AdUnit: "u1",
		Bidder: "appnexus", CPM: 0.2, Size: hb.SizeMediumRectangle, Library: "prebid.js"})
	p.Bus.Emit(events.Event{Type: events.AuctionEnd, Time: at(160), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	feedExchange(p, at(161), 120*time.Millisecond, webreq.GET,
		"https://securepubads.doubleclick.net/gampad/ads?site=pub.example&slots=u1%7C300x250&hb_bidder.u1=appnexus", "")
	o := det.Observation()
	if o.Facet != hb.FacetHybrid {
		t.Fatalf("facet = %v, want hybrid (partner-run ad server)", o.Facet)
	}
	if o.TotalHBLatency != 280*time.Millisecond {
		t.Fatalf("latency = %v", o.TotalHBLatency)
	}
}

func TestClassifyHybridViaS2SWinner(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	feedClientAuction(p, "adserver.pub.example")
	// A creative request carrying an s2s winner marks the deployment
	// hybrid even without a partner ad-server host.
	req := &webreq.Request{
		URL:    "https://creatives.example/render?slot=u1&hb_bidder=rubicon&hb_pb=0.50&hb_source=s2s&hb_size=300x250&hb_price=0.5230",
		Method: webreq.GET, Sent: at(305),
	}
	req.ID = p.Inspector.NextID()
	p.Inspector.SawRequest(req)
	o := det.Observation()
	if o.Facet != hb.FacetHybrid {
		t.Fatalf("facet = %v, want hybrid (s2s winner observed)", o.Facet)
	}
	// The s2s winner joins the matching client auction as a bid.
	found := false
	for _, a := range o.Auctions {
		for _, b := range a.Bids {
			if b.Bidder == "rubicon" && b.Source == "s2s" && b.CPM == 0.5230 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("s2s winner not merged: %+v", o.Auctions)
	}
	for _, w := range o.WinnersSeen {
		if w == "rubicon" {
			return
		}
	}
	t.Fatalf("rubicon missing from winners: %v", o.WinnersSeen)
}

func feedHostedFlow(p *browser.Page, withWinner bool) {
	feedExchange(p, at(0), 260*time.Millisecond, webreq.POST,
		"https://hb.doubleclick.net/ssp/auction?site=pub.example&slots=s1%7C300x250%2Cs2%7C728x90", "")
	if withWinner {
		req := &webreq.Request{
			URL:    "https://creatives.example/render?slot=s1&hb_bidder=ix&hb_pb=0.30&hb_source=s2s&hb_size=300x250",
			Method: webreq.GET, Sent: at(270),
		}
		req.ID = p.Inspector.NextID()
		p.Inspector.SawRequest(req)
		p.Bus.Emit(events.Event{Type: events.SlotRenderEnded, Time: at(300), AdUnit: "s1",
			Size: hb.SizeMediumRectangle, Library: "gpt.js",
			Params: urlkit.Query{{Key: hb.KeyBidder, Value: "ix"}, {Key: hb.KeySource, Value: "s2s"}, {Key: "slot", Value: "s1"}}})
	}
}

func TestClassifyServerSide(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	feedHostedFlow(p, true)
	o := det.Observation()
	if o.Facet != hb.FacetServer {
		t.Fatalf("facet = %v, want server", o.Facet)
	}
	// One auction per hosted slot, winner attached to s1.
	if len(o.Auctions) != 2 {
		t.Fatalf("auctions = %d, want 2 (one per hosted slot)", len(o.Auctions))
	}
	for i, want := range []string{"pub.example-ss-1", "pub.example-ss-2"} {
		if got := o.Auctions[i].ID; got != want {
			t.Errorf("hosted auction %d has ID %q, want %q", i, got, want)
		}
	}
	if o.AdSlotsAuctioned != 2 {
		t.Fatalf("slots = %d", o.AdSlotsAuctioned)
	}
	var s1 *AuctionObs
	for i := range o.Auctions {
		if o.Auctions[i].AdUnit == "s1" {
			s1 = &o.Auctions[i]
		}
	}
	if s1 == nil || s1.Winner == nil || s1.Winner.Bidder != "ix" {
		t.Fatalf("s1 = %+v", s1)
	}
	if o.TotalHBLatency != 260*time.Millisecond {
		t.Fatalf("latency = %v", o.TotalHBLatency)
	}
}

func TestClassifyServerSideNoWinnerStillDetected(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	feedHostedFlow(p, false)
	o := det.Observation()
	if !o.HB || o.Facet != hb.FacetServer {
		t.Fatalf("hosted flow without winners must still classify server; got %v HB=%v", o.Facet, o.HB)
	}
	for _, a := range o.Auctions {
		if len(a.Bids) != 0 {
			t.Fatalf("phantom bids: %+v", a)
		}
	}
}

func TestNonHBPageCleanVerdict(t *testing.T) {
	p, det, _ := newTestPage("https://www.plain.example/")
	// Ordinary page traffic: doc, jquery, analytics, an RTB-style
	// notification with DSP-specific params (NOT hb_*).
	feedExchange(p, at(0), 80*time.Millisecond, webreq.GET, "https://www.plain.example/", "")
	feedExchange(p, at(10), 30*time.Millisecond, webreq.GET, "https://cdn.static.example/jquery.js", "")
	feedExchange(p, at(20), 60*time.Millisecond, webreq.GET,
		"https://tracker.example/notify?winprice=0.3&dspid=77", "")
	o := det.Observation()
	if o.HB {
		t.Fatalf("false positive: %+v", o)
	}
	if o.Facet != hb.FacetUnknown {
		t.Fatalf("facet = %v", o.Facet)
	}
	if o.RequestCount != 3 {
		t.Fatalf("requests = %d", o.RequestCount)
	}
}

func TestWaterfallRTBNotMistakenForHB(t *testing.T) {
	// Traffic to a known partner WITHOUT HB parameters or events — i.e.
	// plain RTB/waterfall — must not classify as HB (§3.1: parameter
	// names in RTB are DSP-dependent and no DOM events fire).
	p, det, _ := newTestPage("https://www.plain.example/")
	feedExchange(p, at(0), 90*time.Millisecond, webreq.GET,
		"https://ad.doubleclick.net/ddm/adj/N123?ord=12345", "")
	o := det.Observation()
	if o.HB {
		t.Fatalf("RTB traffic misclassified as HB: %+v", o)
	}
	// Plain RTB traffic to a known partner domain does not mark the
	// partner as an HB participant: Figure 9's counts derive from the
	// requests that trigger HB events, not from any ad traffic.
	if len(o.PartnersSeen) != 0 {
		t.Fatalf("partners = %v, want none", o.PartnersSeen)
	}
}

func TestLateBidJudgedByTiming(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	bus := p.Bus
	bus.Emit(events.Event{Type: events.AuctionInit, Time: at(0), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	bus.Emit(events.Event{Type: events.BidResponse, Time: at(100), AuctionID: "a1", AdUnit: "u1",
		Bidder: "appnexus", CPM: 0.3, Library: "prebid.js"})
	bus.Emit(events.Event{Type: events.AuctionEnd, Time: at(3000), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	// This response arrives after auctionEnd -> late by the detector's
	// own timing judgement.
	bus.Emit(events.Event{Type: events.BidResponse, Time: at(4200), AuctionID: "a1", AdUnit: "u1",
		Bidder: "rubicon", CPM: 0.9, Library: "prebid.js"})
	feedExchange(p, at(3001), 50*time.Millisecond, webreq.GET,
		"https://adserver.pub.example/serve?slots=u1%7C300x250&hb_bidder.u1=appnexus", "")
	o := det.Observation()
	a := o.Auctions[0]
	late := 0
	for _, b := range a.Bids {
		if b.Late {
			late++
		}
	}
	if late != 1 {
		t.Fatalf("late bids = %d, want 1", late)
	}
	for _, b := range a.Bids {
		if b.Bidder == "rubicon" && !b.Late {
			t.Fatal("late response not marked late")
		}
		if b.Bidder == "appnexus" && b.Late {
			t.Fatal("on-time response marked late")
		}
	}
}

func TestBidWonWithoutPriorResponseSynthesized(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	p.Bus.Emit(events.Event{Type: events.AuctionInit, Time: at(0), AuctionID: "a1", AdUnit: "u1", Library: "prebid.js"})
	p.Bus.Emit(events.Event{Type: events.BidWon, Time: at(100), AuctionID: "a1", AdUnit: "u1",
		Bidder: "criteo", CPM: 0.7, Library: "prebid.js"})
	o := det.Observation()
	a := o.Auctions[0]
	if a.Winner == nil || a.Winner.Bidder != "criteo" || a.Winner.CPM != 0.7 {
		t.Fatalf("winner = %+v", a.Winner)
	}
}

func TestPartnerLatenciesCollected(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	for i := 0; i < 3; i++ {
		feedExchange(p, at(i*10), time.Duration(100+i*50)*time.Millisecond, webreq.POST,
			"https://bid.rubiconproject.com/hb/v1/bid", "{}")
	}
	o := det.Observation()
	lats := o.PartnerLatency["rubicon"]
	if len(lats) != 3 {
		t.Fatalf("latencies = %v", lats)
	}
	if lats[0] != 100*time.Millisecond || lats[2] != 200*time.Millisecond {
		t.Fatalf("latency values wrong: %v", lats)
	}
}

func TestRenderFailureCounted(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	feedClientAuction(p, "adserver.pub.example")
	p.Bus.Emit(events.Event{Type: events.AdRenderFailed, Time: at(400), AdUnit: "u1", Library: "prebid.js"})
	o := det.Observation()
	if o.RenderFails != 1 {
		t.Fatalf("render fails = %d", o.RenderFails)
	}
	if !o.Auctions[0].Failed {
		t.Fatal("failure not attached to auction")
	}
}

func TestInvalidEventTypeIgnored(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	p.Bus.Emit(events.Event{Type: "bogusEvent", Time: at(0)})
	o := det.Observation()
	if o.EventCount != 0 {
		t.Fatal("invalid event counted")
	}
}

// cloneObservation deep-copies o out of the detector's storage, which the
// next Observation call rewrites in place.
func cloneObservation(o *Observation) *Observation {
	c := *o
	c.Libraries = slices.Clone(o.Libraries)
	c.PartnersSeen = slices.Clone(o.PartnersSeen)
	c.WinnersSeen = slices.Clone(o.WinnersSeen)
	c.PartnerLatency = cloneSeries(o.PartnerLatency)
	c.PartnerLateLatency = cloneSeries(o.PartnerLateLatency)
	c.PartnerErrors = maps.Clone(o.PartnerErrors)
	c.Auctions = slices.Clone(o.Auctions)
	for i := range c.Auctions {
		a := &c.Auctions[i]
		a.Bids = slices.Clone(a.Bids)
		if w := a.Winner; w != nil {
			w := *w
			a.Winner = &w
		}
		for j := range a.Bids {
			if o.Auctions[i].Winner == &o.Auctions[i].Bids[j] {
				a.Winner = &a.Bids[j]
			}
		}
	}
	return &c
}

func cloneSeries(m map[string][]time.Duration) map[string][]time.Duration {
	if m == nil {
		return nil
	}
	c := make(map[string][]time.Duration, len(m))
	for k, v := range m {
		c[k] = slices.Clone(v)
	}
	return c
}

// A second Observation call returns the same storage, rewritten to the
// same values: the record is valid until the detector's next Reattach.
func TestObservationIdempotent(t *testing.T) {
	hybrid := func(p *browser.Page) {
		feedClientAuction(p, "adserver.pub.example")
		req := &webreq.Request{
			URL:    "https://creatives.example/render?slot=u1&hb_bidder=rubicon&hb_pb=0.50&hb_source=s2s&hb_size=300x250&hb_price=0.5230",
			Method: webreq.GET, Sent: at(305),
		}
		req.ID = p.Inspector.NextID()
		p.Inspector.SawRequest(req)
	}
	for _, tc := range []struct {
		name  string
		facet hb.Facet
		feed  func(*browser.Page)
	}{
		{"client", hb.FacetClient, func(p *browser.Page) { feedClientAuction(p, "adserver.pub.example") }},
		{"hybrid", hb.FacetHybrid, hybrid},
		{"server", hb.FacetServer, func(p *browser.Page) { feedHostedFlow(p, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, det, _ := newTestPage("https://www.pub.example/")
			tc.feed(p)
			a := det.Observation()
			if a.Facet != tc.facet || len(a.Auctions) == 0 {
				t.Fatalf("facet = %v with %d auctions, want %v with some", a.Facet, len(a.Auctions), tc.facet)
			}
			first := cloneObservation(a)
			b := det.Observation()
			if a != b {
				t.Fatal("second Observation call returned new storage")
			}
			if !reflect.DeepEqual(first, b) {
				t.Fatalf("Observation not idempotent:\nfirst  %+v\nsecond %+v", first, b)
			}
		})
	}
}

func TestManyAuctionsOrdered(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	for i := 0; i < 10; i++ {
		p.Bus.Emit(events.Event{Type: events.AuctionInit, Time: at(i),
			AuctionID: fmt.Sprintf("a%d", i), AdUnit: fmt.Sprintf("u%d", i), Library: "prebid.js"})
	}
	o := det.Observation()
	if len(o.Auctions) != 10 || o.AdSlotsAuctioned != 10 {
		t.Fatalf("auctions = %d slots = %d", len(o.Auctions), o.AdSlotsAuctioned)
	}
	for i, a := range o.Auctions {
		if a.ID != fmt.Sprintf("a%d", i) {
			t.Fatalf("auction order lost: %v", a.ID)
		}
	}
}

func TestLibrariesRecorded(t *testing.T) {
	p, det, _ := newTestPage("https://www.pub.example/")
	feedClientAuction(p, "adserver.pub.example")
	o := det.Observation()
	if len(o.Libraries) != 2 { // prebid.js + gpt.js (render event)
		t.Fatalf("libraries = %v", o.Libraries)
	}
}

// TestHostedAuctionIDsKeptPerDomain: a hosted page's auction IDs are
// "<domain>-ss-<i>" whatever pages the detector saw before: a domain
// seen with fewer hosted slots is served a prefix of its kept string,
// one seen with more has its string rebuilt, and a later page with
// fewer slots reads a prefix of that.
func TestHostedAuctionIDsKeptPerDomain(t *testing.T) {
	var d Detector
	for _, c := range []struct {
		domain string
		n      int
	}{{"a.example", 3}, {"b.example", 1}, {"a.example", 12}, {"a.example", 2}, {"b.example", 0}, {"b.example", 4}} {
		ids, lo := d.hostedAuctionIDs(c.domain, c.n), 0
		for i := 0; i < c.n; i++ {
			if got, want := ids[lo:d.idEnds[i]], fmt.Sprintf("%s-ss-%d", c.domain, i+1); got != want {
				t.Fatalf("%s with %d slots: auction %d has ID %q, want %q", c.domain, c.n, i, got, want)
			}
			lo = d.idEnds[i]
		}
		if len(d.idEnds) != c.n {
			t.Fatalf("%s with %d slots: %d ID ends", c.domain, c.n, len(d.idEnds))
		}
	}
}
