package pubfood

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
	"headerbid/internal/rtb"
	"headerbid/internal/webreq"
)

type fakeEnv struct {
	sched   *clock.Scheduler
	respond func(req *webreq.Request) (time.Duration, *webreq.Response)
	fetched []string
}

func newFakeEnv() *fakeEnv { return &fakeEnv{sched: clock.NewScheduler(time.Time{})} }

func (f *fakeEnv) Now() time.Time              { return f.sched.Now() }
func (f *fakeEnv) NewRequest() *webreq.Request { return new(webreq.Request) }
func (f *fakeEnv) AfterCall(d time.Duration, fn func(any), arg any) {
	f.sched.AfterCall(d, fn, arg)
}
func (f *fakeEnv) FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any) {
	f.fetched = append(f.fetched, req.URL)
	lat, resp := f.respond(req)
	if resp == nil {
		resp = &webreq.Response{Err: "refused"}
	}
	f.sched.After(lat, func() {
		resp.Received = f.sched.Now()
		fn(resp, arg)
	})
}

func responder(latency time.Duration, cpm float64) func(req *webreq.Request) (time.Duration, *webreq.Response) {
	return func(req *webreq.Request) (time.Duration, *webreq.Response) {
		switch {
		case strings.Contains(req.URL, "/hb/v1/bid"):
			var breq rtb.BidRequest
			json.Unmarshal([]byte(req.Body()), &breq)
			resp := rtb.BidResponse{ID: breq.ID, Currency: "USD"}
			seat := rtb.SeatBid{Seat: "x"}
			for _, imp := range breq.Imp {
				seat.Bid = append(seat.Bid, rtb.SeatOne{
					ImpID: imp.ID, Price: cpm, W: 300, H: 250,
				})
			}
			resp.SeatBid = []rtb.SeatBid{seat}
			blob, _ := json.Marshal(resp)
			return latency, &webreq.Response{Status: 200, Body: string(blob)}
		case strings.Contains(req.URL, "/serve"):
			params := req.Params()
			var lines []string
			for _, spec := range strings.Split(params.Get("slots"), ",") {
				code := strings.Split(spec, "|")[0]
				ch := "house"
				if params.Get(hb.KeyBidder+"."+code) != "" {
					ch = "hb"
				}
				lines = append(lines, code+"|"+ch+"|https://creatives.example/render?slot="+code)
			}
			return 40 * time.Millisecond, &webreq.Response{Status: 200, Body: strings.Join(lines, "\n")}
		default:
			return 10 * time.Millisecond, &webreq.Response{Status: 200, Body: "<ad/>"}
		}
	}
}

// page is a pubfood page's config: its slots, the providers every slot
// lists, and its deadline.
type page struct {
	slots     []prebid.AdUnit
	providers []string
	timeoutMS int
}

func cfg() page {
	return page{
		slots:     []prebid.AdUnit{{Code: "pf-1", Sizes: []hb.Size{hb.SizeMediumRectangle}}},
		providers: []string{"appnexus"},
		timeoutMS: 2000,
	}
}

// runLib runs c's round on the bid-round engine in pubfood's dialect, as
// a page's runtime builds it.
func runLib(t *testing.T, env *fakeEnv, c page) (*prebid.Result, *eventLog) {
	t.Helper()
	for i := range c.slots {
		c.slots[i].Bidders = c.providers
	}
	units := AdUnits(c.slots)
	bus := new(events.Bus)
	log := logEvents(bus)
	var w prebid.Wrapper
	w.Reset(env, bus, partners.Default(), prebid.Config{
		Dialect:     &Dialect,
		Site:        "pub.example",
		Page:        "https://www.pub.example/",
		AdUnits:     units,
		Slots:       prebid.SlotSpecs(units),
		AuctionIDs:  Dialect.AuctionIDs("pub.example", len(units)),
		TimeoutMS:   c.timeoutMS,
		AdServerURL: "https://adserver.pub.example/serve",
	})
	var res *prebid.Result
	w.RequestBids(func(r *prebid.Result) { res = r })
	env.sched.Run()
	if res == nil {
		t.Fatal("pubfood round never completed")
	}
	return res, log
}

// eventLog keeps every event a bus emits, in order.
type eventLog struct{ events []events.Event }

func logEvents(bus *events.Bus) *eventLog {
	l := &eventLog{}
	bus.SubscribeAll(func(e events.Event) { l.events = append(l.events, e) })
	return l
}

// counts tallies the log by event type.
func (l *eventLog) counts() map[events.Type]int {
	out := make(map[events.Type]int)
	for _, e := range l.events {
		out[e.Type]++
	}
	return out
}

func TestPubfoodHappyPath(t *testing.T) {
	env := newFakeEnv()
	env.respond = responder(150*time.Millisecond, 0.33)
	res, evs := runLib(t, env, cfg())

	if len(res.Units) != 1 {
		t.Fatalf("slots = %d", len(res.Units))
	}
	s := res.Units[0]
	if s.Winner == nil || s.Winner.CPM != 0.33 || !s.Rendered {
		t.Fatalf("slot = %+v winner=%+v", s, s.Winner)
	}
	if lat := res.AdServerResponded.Sub(s.Start); lat < 150*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
	if s.AuctionID != "pub.example-pf1" {
		t.Fatalf("auction ID %q, want pub.example-pf1", s.AuctionID)
	}
	counts := evs.counts()
	for _, typ := range []events.Type{
		events.AuctionInit, events.RequestBids, events.BidRequested,
		events.BidResponse, events.AuctionEnd, events.BidWon,
		events.SetTargeting, events.SlotRenderEnded,
	} {
		if counts[typ] == 0 {
			t.Errorf("event %s never fired", typ)
		}
	}
	// Every event must carry the pubfood library label, renders too.
	for _, e := range evs.events {
		if e.Library != "pubfood.js" {
			t.Fatalf("event %s has library %q", e.Type, e.Library)
		}
	}
}

func TestPubfoodTimeoutLateBid(t *testing.T) {
	env := newFakeEnv()
	env.respond = responder(5*time.Second, 1.0) // past the 2s deadline
	res, _ := runLib(t, env, cfg())
	s := res.Units[0]
	if s.Winner != nil {
		t.Fatalf("late bid won: %+v", s.Winner)
	}
	if len(s.Bids) != 1 || !s.Bids[0].Late {
		t.Fatalf("late bid not recorded: %+v", s.Bids)
	}
}

func TestPubfoodUnknownProviderSkipped(t *testing.T) {
	env := newFakeEnv()
	env.respond = responder(50*time.Millisecond, 0.2)
	c := cfg()
	c.providers = []string{"ghost-adapter"}
	res, _ := runLib(t, env, c)
	if res.AdServerResponded.IsZero() {
		t.Fatal("round did not conclude without providers")
	}
	for _, u := range env.fetched {
		if strings.Contains(u, "ghost") {
			t.Fatal("unknown provider hit the network")
		}
	}
}

func TestPubfoodProviderError(t *testing.T) {
	env := newFakeEnv()
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		if strings.Contains(req.URL, "/hb/v1/bid") {
			return 30 * time.Millisecond, &webreq.Response{Status: 500}
		}
		return responder(0, 0)(req)
	}
	res, _ := runLib(t, env, cfg())
	if len(res.Units[0].Bids) != 0 {
		t.Fatal("bids from a 500 response")
	}
	if res.AdServerResponded.IsZero() {
		t.Fatal("round did not conclude")
	}
}

func TestPubfoodDefaultTimeout(t *testing.T) {
	if (prebid.Config{Dialect: &Dialect}).Timeout() != 2*time.Second {
		t.Fatal("pubfood default timeout should be 2s")
	}
}

func TestPubfoodMultiSlot(t *testing.T) {
	env := newFakeEnv()
	env.respond = responder(100*time.Millisecond, 0.5)
	c := cfg()
	c.slots = append(c.slots, prebid.AdUnit{Code: "pf-2", Sizes: []hb.Size{hb.SizeLeaderboard, hb.SizeMediumRectangle}})
	res, evs := runLib(t, env, c)
	if len(res.Units) != 2 {
		t.Fatalf("slots = %d", len(res.Units))
	}
	for _, s := range res.Units {
		if s.Winner == nil {
			t.Fatalf("slot %s no winner", s.AdUnit)
		}
	}
	if evs.counts()[events.AuctionInit] != 2 {
		t.Fatal("one auctionInit per slot expected")
	}
	// Single provider: exactly one bid request despite two slots.
	bidReqs := 0
	for _, u := range env.fetched {
		if strings.Contains(u, "/hb/v1/bid") {
			bidReqs++
		}
	}
	if bidReqs != 1 {
		t.Fatalf("bid requests = %d, want 1", bidReqs)
	}
}

// Providers still outstanding at the deadline each get a bidTimeout
// event, in the order their requests went out (the Providers order), on
// every run.
func TestPubfoodBidTimeoutsInRequestOrder(t *testing.T) {
	names := []string{"sovrn", "appnexus", "pubmatic", "rubicon", "openx"}
	c := cfg()
	c.providers = names
	for run := 0; run < 20; run++ {
		env := newFakeEnv()
		env.respond = responder(5*time.Second, 1.0) // past the 2s deadline
		_, evs := runLib(t, env, c)
		var got []string
		for _, e := range evs.events {
			if e.Type == events.BidTimeout {
				got = append(got, e.Bidder)
			}
		}
		if !slices.Equal(got, names) {
			t.Fatalf("run %d: bidTimeout order %v, want request order %v", run, got, names)
		}
	}
}
