package gptlib

import (
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
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

func hostedResponder(lines string) func(req *webreq.Request) (time.Duration, *webreq.Response) {
	return func(req *webreq.Request) (time.Duration, *webreq.Response) {
		switch {
		case strings.Contains(req.URL, "/ssp/auction"):
			return 250 * time.Millisecond, &webreq.Response{Status: 200, Body: lines}
		case strings.Contains(req.URL, "creatives.example"):
			return 15 * time.Millisecond, &webreq.Response{Status: 200, Body: "<ad/>"}
		default:
			return 5 * time.Millisecond, &webreq.Response{Status: 204}
		}
	}
}

func testCfg() ServerSideConfig {
	return ServerSideConfig{
		Site:     "pub.example",
		Provider: "dfp",
		Slots: []Slot{
			{Code: "s1", Size: hb.SizeMediumRectangle},
			{Code: "s2", Size: hb.SizeLeaderboard},
		},
	}
}

func run(t *testing.T, env *fakeEnv, cfg ServerSideConfig) (*ServerSideResult, *eventLog) {
	t.Helper()
	bus := new(events.Bus)
	log := logEvents(bus)
	var c ServerSideClient
	c.Reset(env, bus, partners.Default(), cfg)
	var res *ServerSideResult
	c.Run(func(r *ServerSideResult) { res = r })
	env.sched.Run()
	if res == nil {
		t.Fatal("hosted client never completed")
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

func TestHostedAuctionHappyPath(t *testing.T) {
	env := newFakeEnv()
	env.respond = hostedResponder(
		"s1|hb|https://creatives.example/render?slot=s1&hb_bidder=rubicon&hb_pb=0.30&hb_size=300x250&hb_source=s2s\n" +
			"s2|house|https://creatives.example/render?slot=s2&channel=house")
	res, evs := run(t, env, testCfg())

	if lat := res.Responded.Sub(res.Requested); lat < 250*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
	if len(res.Slots) != 2 {
		t.Fatalf("slots = %d", len(res.Slots))
	}
	for _, s := range res.Slots {
		if !s.Rendered {
			t.Fatalf("slot %s not rendered", s.Code)
		}
	}
	counts := evs.counts()
	if counts[events.SlotRenderEnded] != 2 {
		t.Fatalf("slotRenderEnded = %d", counts[events.SlotRenderEnded])
	}
	// Hosted auctions are opaque: no client auction events.
	if counts[events.AuctionInit] != 0 || counts[events.BidResponse] != 0 {
		t.Fatalf("hosted auction leaked client-side events: %v", counts)
	}
	// The render event must carry the hb_* params for the detector.
	var sawBidder bool
	for _, e := range evs.events {
		if e.Type == events.SlotRenderEnded && e.Params.Get(hb.KeyBidder) == "rubicon" {
			sawBidder = true
		}
	}
	if !sawBidder {
		t.Fatal("slotRenderEnded missing hb_bidder param")
	}
}

func TestHostedSingleRequest(t *testing.T) {
	env := newFakeEnv()
	env.respond = hostedResponder("s1|house|https://creatives.example/render?slot=s1")
	run(t, env, testCfg())
	n := 0
	for _, u := range env.fetched {
		if strings.Contains(u, "/ssp/auction") {
			n++
			if !strings.Contains(u, "slots=") || !strings.Contains(u, "site=pub.example") {
				t.Fatalf("hosted request malformed: %s", u)
			}
		}
	}
	if n != 1 {
		t.Fatalf("hosted requests = %d, want exactly 1 (that is the point of server-side HB)", n)
	}
}

func TestHostedRenderFailure(t *testing.T) {
	env := newFakeEnv()
	env.respond = hostedResponder("s1|hb|https://creatives.example/render?slot=s1&hb_bidder=ix|fail")
	res, evs := run(t, env, testCfg())
	if !res.Slots[0].RenderFailed {
		t.Fatal("render failure not recorded")
	}
	if evs.counts()[events.AdRenderFailed] != 1 {
		t.Fatal("adRenderFailed missing")
	}
}

func TestHostedProviderErrorTolerated(t *testing.T) {
	env := newFakeEnv()
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		return 40 * time.Millisecond, &webreq.Response{Status: 503}
	}
	res, _ := run(t, env, testCfg())
	if len(res.Slots) != 0 {
		t.Fatal("slots rendered from an error response")
	}
	if res.Responded.IsZero() {
		t.Fatal("response time not recorded")
	}
}

func TestHostedMalformedLinesSkipped(t *testing.T) {
	env := newFakeEnv()
	env.respond = hostedResponder("garbage\n|||\nundefined-slot|hb|https://creatives.example/x\ns1|hb|https://creatives.example/render?slot=s1")
	res, _ := run(t, env, testCfg())
	if len(res.Slots) != 1 || res.Slots[0].Code != "s1" {
		t.Fatalf("slots = %+v", res.Slots)
	}
}

func TestHostedUnknownProvider(t *testing.T) {
	env := newFakeEnv()
	env.respond = hostedResponder("")
	cfg := testCfg()
	cfg.Provider = "no-such-partner"
	res, _ := run(t, env, cfg)
	if len(env.fetched) != 0 {
		t.Fatal("unknown provider hit the network")
	}
	if len(res.Slots) != 0 {
		t.Fatal("phantom slots")
	}
}

func TestSlotsFromAdUnits(t *testing.T) {
	units := []prebid.AdUnit{
		{Code: "a", Sizes: []hb.Size{hb.SizeLeaderboard, hb.SizeMediumRectangle}},
		{Code: "b"},
	}
	used := []Slot{{Code: "stale"}}
	slots := AppendSlots(used[:0], units)
	if len(slots) != 2 || slots[0].Size != hb.SizeLeaderboard || slots[0].Code != "a" {
		t.Fatalf("slots = %+v", slots)
	}
	if slots[1].Size != hb.SizeMediumRectangle {
		t.Fatalf("default size = %v", slots[1].Size)
	}
}
