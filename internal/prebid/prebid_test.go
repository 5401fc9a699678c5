package prebid

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/rtb"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// fakeEnv drives the wrapper on a virtual clock with scripted responses.
type fakeEnv struct {
	sched *clock.Scheduler
	// respond decides each request's (latency, response); nil responses
	// become transport errors.
	respond func(req *webreq.Request) (time.Duration, *webreq.Response)
	// log of fetched URLs in order.
	fetched []string
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{sched: clock.NewScheduler(time.Time{})}
}

func (f *fakeEnv) Now() time.Time              { return f.sched.Now() }
func (f *fakeEnv) NewRequest() *webreq.Request { return new(webreq.Request) }
func (f *fakeEnv) AfterCall(d time.Duration, fn func(any), arg any) {
	f.sched.AfterCall(d, fn, arg)
}
func (f *fakeEnv) FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any) {
	f.fetched = append(f.fetched, req.URL)
	lat, resp := f.respond(req)
	if resp == nil {
		resp = &webreq.Response{Err: "connection refused"}
	}
	f.sched.After(lat, func() {
		resp.Received = f.sched.Now()
		fn(resp, arg)
	})
}

// bidderResponder answers bid requests with one bid per impression at the
// given CPM, and answers the ad server + creatives generically.
func bidderResponder(latencies map[string]time.Duration, cpms map[string]float64) func(req *webreq.Request) (time.Duration, *webreq.Response) {
	return func(req *webreq.Request) (time.Duration, *webreq.Response) {
		switch {
		case strings.Contains(req.URL, "/hb/v1/bid"):
			var breq rtb.BidRequest
			if err := json.Unmarshal([]byte(req.Body()), &breq); err != nil {
				return time.Millisecond, &webreq.Response{Status: 400}
			}
			var ext struct {
				Prebid struct {
					Bidder string `json:"bidder"`
				} `json:"prebid"`
			}
			if err := json.Unmarshal(breq.Ext, &ext); err != nil {
				return time.Millisecond, &webreq.Response{Status: 400}
			}
			bidder := ext.Prebid.Bidder
			lat := latencies[bidder]
			if lat == 0 {
				lat = 100 * time.Millisecond
			}
			cpm, bids := cpms[bidder]
			resp := rtb.BidResponse{ID: breq.ID, Currency: "USD"}
			if bids {
				seat := rtb.SeatBid{Seat: bidder}
				for _, imp := range breq.Imp {
					seat.Bid = append(seat.Bid, rtb.SeatOne{
						ImpID: imp.ID, Price: cpm, W: 300, H: 250, CrID: bidder + "-cr",
					})
				}
				resp.SeatBid = []rtb.SeatBid{seat}
			}
			blob, _ := json.Marshal(resp)
			return lat, &webreq.Response{Status: 200, Body: string(blob)}
		case strings.Contains(req.URL, "/serve"):
			// Publisher ad server: fill every slot via HB when targeting
			// is present.
			params := webreqParams(req)
			var lines []string
			for _, spec := range strings.Split(params.Get("slots"), ",") {
				code := strings.Split(spec, "|")[0]
				if params.Get(hb.KeyBidder+"."+code) != "" {
					lines = append(lines, code+"|hb|https://creatives.example/render?slot="+code)
				} else {
					lines = append(lines, code+"|house|https://creatives.example/render?house=1&slot="+code)
				}
			}
			return 50 * time.Millisecond, &webreq.Response{Status: 200, Body: strings.Join(lines, "\n")}
		case strings.Contains(req.URL, "creatives.example"):
			return 10 * time.Millisecond, &webreq.Response{Status: 200, Body: "<ad/>"}
		default:
			return 5 * time.Millisecond, &webreq.Response{Status: 204}
		}
	}
}

func webreqParams(req *webreq.Request) urlkit.Query { return req.Params() }

func testConfig(units int, bidders ...string) Config {
	cfg := Config{
		Site:        "pub.example",
		Page:        "https://www.pub.example/",
		TimeoutMS:   3000,
		AdServerURL: "https://adserver.pub.example/serve",
	}
	for i := 0; i < units; i++ {
		cfg.AdUnits = append(cfg.AdUnits, AdUnit{
			Code:    fmt.Sprintf("u%d", i+1),
			Sizes:   []hb.Size{hb.SizeMediumRectangle},
			Bidders: bidders,
		})
	}
	cfg.Slots = SlotSpecs(cfg.AdUnits)
	cfg.AuctionIDs = PrebidJS.AuctionIDs(cfg.Site, units)
	return cfg
}

func runWrapper(t *testing.T, env *fakeEnv, cfg Config) (*Result, *eventLog) {
	t.Helper()
	bus := new(events.Bus)
	log := logEvents(bus)
	var w Wrapper
	w.Reset(env, bus, partners.Default(), cfg)
	var result *Result
	w.RequestBids(func(r *Result) { result = r })
	env.sched.Run()
	if result == nil {
		t.Fatal("wrapper never completed")
	}
	return result, log
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

func TestAuctionHappyPath(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(
		map[string]time.Duration{"appnexus": 200 * time.Millisecond, "rubicon": 300 * time.Millisecond},
		map[string]float64{"appnexus": 0.50, "rubicon": 0.80},
	)
	res, evs := runWrapper(t, env, testConfig(2, "appnexus", "rubicon"))

	if len(res.Units) != 2 {
		t.Fatalf("units = %d", len(res.Units))
	}
	for _, u := range res.Units {
		if len(u.Bids) != 2 {
			t.Fatalf("unit %s bids = %d, want 2", u.AdUnit, len(u.Bids))
		}
		if u.Winner == nil || u.Winner.Bidder != "rubicon" {
			t.Fatalf("unit %s winner = %+v, want rubicon (higher bid)", u.AdUnit, u.Winner)
		}
		if u.Channel != "hb" || !u.Rendered {
			t.Fatalf("unit %s channel=%s rendered=%v", u.AdUnit, u.Channel, u.Rendered)
		}
	}

	// Early finalize: both bidders answered well before the 3s deadline.
	if lat := res.AdServerResponded.Sub(res.FirstBidRequest); lat > time.Second || lat < 300*time.Millisecond {
		t.Fatalf("total latency = %v, want ≈350ms (early finalize)", lat)
	}

	counts := evs.counts()
	if counts[events.AuctionInit] != 2 || counts[events.AuctionEnd] != 2 {
		t.Fatalf("auction events: %v", counts)
	}
	if counts[events.BidRequested] != 4 { // 2 bidders × 2 units
		t.Fatalf("bidRequested = %d", counts[events.BidRequested])
	}
	if counts[events.BidResponse] != 4 {
		t.Fatalf("bidResponse = %d", counts[events.BidResponse])
	}
	if counts[events.BidWon] != 2 || counts[events.SlotRenderEnded] != 2 {
		t.Fatalf("win/render events: %v", counts)
	}
}

// TestOneRequestPerBidder also pins the round's IDs where they are
// used: each unit's auction ID and each bid request's ID, all cut from
// the round's one ID string.
func TestOneRequestPerBidder(t *testing.T) {
	env := newFakeEnv()
	respond := bidderResponder(nil, map[string]float64{"appnexus": 0.1})
	var ids []string
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		if breq, ok := req.Payload().(*rtb.BidRequest); ok {
			ids = append(ids, breq.ID)
		}
		return respond(req)
	}
	res, _ := runWrapper(t, env, testConfig(3, "appnexus", "rubicon"))
	bidReqs := 0
	for _, u := range env.fetched {
		if strings.Contains(u, "/hb/v1/bid") {
			bidReqs++
		}
	}
	if bidReqs != 2 {
		t.Fatalf("bid requests = %d, want 2 (one per partner, units batched)", bidReqs)
	}
	nano := res.FirstBidRequest.UnixNano()
	if want := []string{fmt.Sprintf("pub.example-appnexus-%d", nano), fmt.Sprintf("pub.example-rubicon-%d", nano)}; !slices.Equal(ids, want) {
		t.Errorf("bid-request IDs %q, want %q", ids, want)
	}
	for i, u := range res.Units {
		if want := fmt.Sprintf("pub.example-a%d", i+1); u.AuctionID != want {
			t.Errorf("unit %s has auction ID %q, want %q", u.AdUnit, u.AuctionID, want)
		}
	}
}

func TestLateBidderExcludedFromAuction(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(
		map[string]time.Duration{
			"appnexus": 100 * time.Millisecond,
			"rubicon":  5 * time.Second, // past the 3s deadline
		},
		map[string]float64{"appnexus": 0.10, "rubicon": 9.99},
	)
	res, evs := runWrapper(t, env, testConfig(1, "appnexus", "rubicon"))

	u := res.Units[0]
	if u.Winner == nil || u.Winner.Bidder != "appnexus" {
		t.Fatalf("winner = %+v, want appnexus (rubicon was late)", u.Winner)
	}
	var lateSeen bool
	for _, b := range u.Bids {
		if b.Bidder == "rubicon" {
			if !b.Late {
				t.Fatal("rubicon's bid not marked late")
			}
			lateSeen = true
		}
	}
	if !lateSeen {
		t.Fatal("late bid not recorded at all (the detector needs it)")
	}
	if evs.counts()[events.BidTimeout] != 1 {
		t.Fatalf("bidTimeout events = %d, want 1", evs.counts()[events.BidTimeout])
	}
	// The round finalized at the deadline, not at rubicon's 5s.
	if lat := res.AdServerResponded.Sub(res.FirstBidRequest); lat < 3*time.Second || lat > 4*time.Second {
		t.Fatalf("total latency = %v, want just over 3s", lat)
	}
}

func TestBadWrapperMakesEverythingLate(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(
		map[string]time.Duration{"appnexus": 100 * time.Millisecond},
		map[string]float64{"appnexus": 2.0},
	)
	cfg := testConfig(1, "appnexus")
	cfg.BadWrapper = true
	res, _ := runWrapper(t, env, cfg)

	u := res.Units[0]
	if u.Winner != nil {
		t.Fatalf("bad wrapper should have no on-time winner, got %+v", u.Winner)
	}
	if len(u.Bids) != 1 || !u.Bids[0].Late {
		t.Fatalf("bid should arrive late: %+v", u.Bids)
	}
}

func TestAllBiddersErrorStillReachesAdServer(t *testing.T) {
	env := newFakeEnv()
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		if strings.Contains(req.URL, "/hb/v1/bid") {
			return 50 * time.Millisecond, &webreq.Response{Status: 503}
		}
		return bidderResponder(nil, nil)(req)
	}
	res, _ := runWrapper(t, env, testConfig(2, "appnexus", "rubicon"))
	if res.AdServerResponded.IsZero() {
		t.Fatal("ad server never contacted despite bidder failures")
	}
	for _, u := range res.Units {
		if u.Channel != "house" {
			t.Fatalf("channel = %s, want house fallback", u.Channel)
		}
	}
	for _, br := range res.Bidders {
		if br.Error == "" {
			t.Fatalf("bidder error not recorded: %+v", br)
		}
	}
}

func TestMalformedBidResponseTolerated(t *testing.T) {
	env := newFakeEnv()
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		if strings.Contains(req.URL, "/hb/v1/bid") {
			return 30 * time.Millisecond, &webreq.Response{Status: 200, Body: "<html>not json</html>"}
		}
		return bidderResponder(nil, nil)(req)
	}
	res, _ := runWrapper(t, env, testConfig(1, "appnexus"))
	if len(res.Units[0].Bids) != 0 {
		t.Fatal("garbage response produced bids")
	}
	if res.AdServerResponded.IsZero() {
		t.Fatal("round did not conclude")
	}
}

func TestTransportErrorTolerated(t *testing.T) {
	env := newFakeEnv()
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		if strings.Contains(req.URL, "/hb/v1/bid") {
			return 20 * time.Millisecond, nil // transport error
		}
		return bidderResponder(nil, nil)(req)
	}
	res, _ := runWrapper(t, env, testConfig(1, "appnexus"))
	if res.Bidders[0].Error == "" {
		t.Fatal("transport error not surfaced")
	}
}

func TestUnknownBidderSkipped(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(nil, map[string]float64{"appnexus": 0.2})
	res, _ := runWrapper(t, env, testConfig(1, "appnexus", "not-a-real-adapter"))
	for _, u := range env.fetched {
		if strings.Contains(u, "not-a-real-adapter") {
			t.Fatal("unknown adapter hit the network")
		}
	}
	if res.Units[0].Winner == nil {
		t.Fatal("known bidder should still win")
	}
}

func TestNoBiddersGoesStraightToAdServer(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(nil, nil)
	res, _ := runWrapper(t, env, testConfig(2))
	if res.AdServerResponded.IsZero() {
		t.Fatal("ad server never contacted")
	}
	if !res.FirstBidRequest.IsZero() {
		t.Fatal("phantom bid request recorded")
	}
}

func TestRenderFailureFiresAdRenderFailed(t *testing.T) {
	env := newFakeEnv()
	env.respond = func(req *webreq.Request) (time.Duration, *webreq.Response) {
		if strings.Contains(req.URL, "/serve") {
			return 20 * time.Millisecond, &webreq.Response{Status: 200,
				Body: "u1|hb|https://creatives.example/render?x=1|fail"}
		}
		return bidderResponder(nil, map[string]float64{"appnexus": 0.5})(req)
	}
	res, evs := runWrapper(t, env, testConfig(1, "appnexus"))
	if !res.Units[0].RenderFailed {
		t.Fatal("render failure not recorded")
	}
	if evs.counts()[events.AdRenderFailed] != 1 {
		t.Fatal("adRenderFailed event missing")
	}
}

func TestWinnerNotificationBeaconSent(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(nil, map[string]float64{"appnexus": 0.7})
	runWrapper(t, env, testConfig(1, "appnexus"))
	found := false
	for _, u := range env.fetched {
		if strings.Contains(u, "/win") && strings.Contains(u, "hb_bidder=appnexus") &&
			strings.Contains(u, "hb_price=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner notification beacon missing; fetched: %v", env.fetched)
	}
}

func TestSendAllBidsTargeting(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(nil,
		map[string]float64{"appnexus": 0.5, "rubicon": 0.3})
	cfg := testConfig(1, "appnexus", "rubicon")
	cfg.SendAllBids = true
	runWrapper(t, env, cfg)
	var adSrvURL string
	for _, u := range env.fetched {
		if strings.Contains(u, "/serve") {
			adSrvURL = u
		}
	}
	if !strings.Contains(adSrvURL, "hb_pb_appnexus") || !strings.Contains(adSrvURL, "hb_pb_rubicon") {
		t.Fatalf("send-all-bids keys missing: %s", adSrvURL)
	}
}

func TestTargetingScopedPerSlot(t *testing.T) {
	env := newFakeEnv()
	env.respond = bidderResponder(nil, map[string]float64{"appnexus": 0.5})
	runWrapper(t, env, testConfig(2, "appnexus"))
	var adSrvURL string
	for _, u := range env.fetched {
		if strings.Contains(u, "/serve") {
			adSrvURL = u
		}
	}
	for _, want := range []string{"hb_bidder.u1", "hb_bidder.u2", "slots="} {
		if !strings.Contains(adSrvURL, want) {
			t.Fatalf("ad server URL missing %q: %s", want, adSrvURL)
		}
	}
}

func TestConfigTimeoutDefault(t *testing.T) {
	if (Config{}).Timeout() != 3*time.Second {
		t.Fatal("default timeout should be 3s")
	}
	if (Config{TimeoutMS: 1500}).Timeout() != 1500*time.Millisecond {
		t.Fatal("explicit timeout ignored")
	}
}

func TestAdUnitNormalizeSizes(t *testing.T) {
	u := AdUnit{SizeStr: []string{"300x250", "728x90"}}
	if err := u.NormalizeSizes(); err != nil {
		t.Fatal(err)
	}
	if len(u.Sizes) != 2 || u.PrimarySize() != hb.SizeMediumRectangle {
		t.Fatalf("sizes = %v", u.Sizes)
	}
	bad := AdUnit{SizeStr: []string{"nope"}}
	if err := bad.NormalizeSizes(); err == nil {
		t.Fatal("bad size accepted")
	}
	empty := AdUnit{}
	if empty.PrimarySize() != hb.SizeMediumRectangle {
		t.Fatal("default primary size wrong")
	}
}

func TestBidResponsesAfterDeadlineStillEmitEvents(t *testing.T) {
	// The detector relies on seeing bidResponse events for late bids.
	env := newFakeEnv()
	env.respond = bidderResponder(
		map[string]time.Duration{"appnexus": 10 * time.Second},
		map[string]float64{"appnexus": 1.0},
	)
	_, evs := runWrapper(t, env, testConfig(1, "appnexus"))
	found := false
	for _, e := range evs.events {
		if e.Type == events.BidResponse && e.Bidder == "appnexus" {
			found = true
		}
	}
	if !found {
		t.Fatal("late bidResponse event suppressed")
	}
}

// Bidders still pending at the deadline each get a bidTimeout event, in
// the order their requests went out. Subscribers see one sequence on
// every run; ranging over the pending set would shuffle it.
func TestBidTimeoutsInRequestOrder(t *testing.T) {
	bidders := []string{"sovrn", "appnexus", "pubmatic", "rubicon", "openx"}
	late := map[string]time.Duration{}
	for _, b := range bidders {
		late[b] = 10 * time.Second // past the 3s deadline
	}
	for run := 0; run < 20; run++ {
		env := newFakeEnv()
		env.respond = bidderResponder(late, nil)
		_, evs := runWrapper(t, env, testConfig(1, bidders...))
		var got []string
		for _, e := range evs.events {
			if e.Type == events.BidTimeout {
				got = append(got, e.Bidder)
			}
		}
		if !slices.Equal(got, bidders) {
			t.Fatalf("run %d: bidTimeout order %v, want request order %v", run, got, bidders)
		}
	}
}
