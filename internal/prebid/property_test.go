package prebid

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/rng"
	"headerbid/internal/rtb"
	"headerbid/internal/webreq"
)

// randomizedResponder answers bid requests with seed-derived latencies and
// prices, so the property check explores many timing interleavings.
func randomizedResponder(seed int64) func(req *webreq.Request) (time.Duration, *webreq.Response) {
	streams := map[string]*rng.Stream{}
	stream := func(name string) *rng.Stream {
		s, ok := streams[name]
		if !ok {
			s = rng.SplitStable(seed, name)
			streams[name] = s
		}
		return s
	}
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
			_ = json.Unmarshal(breq.Ext, &ext)
			bidder := ext.Prebid.Bidder
			r := stream("bid/" + bidder)
			lat := time.Duration(r.UniformInt(20, 5000)) * time.Millisecond
			resp := rtb.BidResponse{ID: breq.ID, Currency: "USD"}
			seat := rtb.SeatBid{Seat: bidder}
			for _, imp := range breq.Imp {
				if r.Bool(0.6) {
					seat.Bid = append(seat.Bid, rtb.SeatOne{
						ImpID: imp.ID,
						Price: 0.01 + r.Float64(),
						W:     300, H: 250,
					})
				}
			}
			if len(seat.Bid) > 0 {
				resp.SeatBid = []rtb.SeatBid{seat}
			}
			blob, _ := json.Marshal(resp)
			return lat, &webreq.Response{Status: 200, Body: string(blob)}
		case strings.Contains(req.URL, "/serve"):
			params := req.Params()
			var lines []string
			for _, spec := range strings.Split(params.Get("slots"), ",") {
				code := strings.Split(spec, "|")[0]
				ch := "house"
				if params.Get(hb.KeyBidder+"."+code) != "" {
					ch = "hb"
				}
				lines = append(lines, code+"|"+ch+"|https://creatives.example/r?slot="+code)
			}
			return 40 * time.Millisecond, &webreq.Response{Status: 200, Body: strings.Join(lines, "\n")}
		default:
			return 10 * time.Millisecond, &webreq.Response{Status: 200, Body: "<ad/>"}
		}
	}
}

// TestAuctionInvariantsProperty drives the wrapper with random bidder
// sets, timeouts and response timings and checks the invariants the
// whole measurement depends on:
//
//  1. the winner is never a late bid,
//  2. the winner has the highest on-time USD CPM of its unit,
//  3. a unit that received no on-time bids has no winner,
//  4. the total latency never exceeds the deadline by more than the
//     ad-server exchange and scheduling slack,
//  5. every bid belongs to a configured ad unit.
func TestAuctionInvariantsProperty(t *testing.T) {
	reg := partners.Default()
	var slugs []string
	for _, p := range reg.All() {
		slugs = append(slugs, p.Slug)
	}

	check := func(seed int64, nBiddersRaw, nUnitsRaw, timeoutRaw uint8) bool {
		nBidders := int(nBiddersRaw)%6 + 1
		nUnits := int(nUnitsRaw)%4 + 1
		timeoutMS := 500 + int(timeoutRaw)%8*500

		var bidders []string
		base := int(uint64(seed) % uint64(len(slugs)))
		for i := 0; i < nBidders; i++ {
			bidders = append(bidders, slugs[(base+i*7)%len(slugs)])
		}
		cfg := Config{
			Site:        "prop.example",
			TimeoutMS:   timeoutMS,
			AdServerURL: "https://adserver.prop.example/serve",
		}
		unitSet := map[string]bool{}
		for i := 0; i < nUnits; i++ {
			code := fmt.Sprintf("u%d", i+1)
			unitSet[code] = true
			cfg.AdUnits = append(cfg.AdUnits, AdUnit{
				Code:    code,
				Sizes:   []hb.Size{hb.SizeMediumRectangle},
				Bidders: bidders,
			})
		}

		env := newFakeEnv()
		env.respond = randomizedResponder(seed)
		var w Wrapper
		w.Reset(env, new(events.Bus), reg, cfg)
		var result *Result
		w.RequestBids(func(r *Result) { result = r })
		env.sched.Run()
		if result == nil {
			return false
		}

		deadline := time.Duration(timeoutMS) * time.Millisecond
		for _, u := range result.Units {
			var bestOnTime float64
			for _, b := range u.Bids {
				if !unitSet[b.AdUnit] {
					return false // invariant 5
				}
				if !b.Late && b.USDCPM() > bestOnTime {
					bestOnTime = b.USDCPM()
				}
			}
			if u.Winner != nil {
				if u.Winner.Late {
					return false // invariant 1
				}
				if u.Winner.USDCPM() < bestOnTime-1e-12 {
					return false // invariant 2
				}
			} else if bestOnTime > 0 {
				return false // invariant 3
			}
		}
		if lat := result.AdServerResponded.Sub(result.FirstBidRequest); lat > deadline+2*time.Second {
			return false // invariant 4
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
