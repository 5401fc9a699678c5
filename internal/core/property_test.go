package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/clock"
	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/rng"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// TestDetectorNeverPanicsProperty throws arbitrary event/request streams
// at an attached detector: random event types (valid and junk), shuffled
// orderings, unmatched auction IDs, malformed URLs, responses without
// requests. The detector must never panic and its Observation must stay
// internally consistent (late bids never win; facet implies HB).
func TestDetectorNeverPanicsProperty(t *testing.T) {
	reg := partners.Default()
	eventTypes := []events.Type{
		events.AuctionInit, events.RequestBids, events.BidRequested, events.BidResponse,
		events.BidTimeout, events.AuctionEnd, events.BidWon, events.SetTargeting,
		events.SlotRenderEnded, events.AdRenderFailed,
		events.Type("junkEvent"), events.Type(""), events.Type("auctioninit"),
	}

	check := func(seed int64, steps uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic with seed %d: %v", seed, r)
				ok = false
			}
		}()
		r := rng.New(seed)
		page, det, _ := newTestPage("https://www.fuzz.example/")

		urls := []string{
			"https://bid.adnxs.com/hb/v1/bid?bidder=appnexus",
			"https://hb.doubleclick.net/ssp/auction?site=fuzz.example&slots=a%7C300x250",
			"https://securepubads.doubleclick.net/gampad/ads?slots=a%7C300x250",
			"https://creatives.example/render?slot=a&hb_bidder=rubicon&hb_source=s2s",
			"https://adserver.fuzz.example/serve?slots=a%7C300x250&hb_pb.a=0.3",
			"https://cdn.static.example/x.js",
			"::malformed::",
			"",
			"https://sync.rubiconproject.com/pixel?uid=1",
		}
		n := int(steps)%60 + 5
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				page.Bus.Emit(events.Event{
					Type:      eventTypes[r.Intn(len(eventTypes))],
					Time:      clockAt(r.Intn(10000)),
					AuctionID: fmt.Sprintf("a%d", r.Intn(4)),
					AdUnit:    fmt.Sprintf("u%d", r.Intn(4)),
					Bidder:    reg.All()[r.Intn(84)].Slug,
					CPM:       r.Float64() * 5,
					Size:      hb.Size{W: r.Intn(1000), H: r.Intn(1000)},
					Params:    urlkit.Query{{Key: "hb_pb", Value: "x"}, {Key: "slot", Value: "a"}},
				})
			case 1:
				req := &webreq.Request{
					URL:    urls[r.Intn(len(urls))],
					Method: webreq.GET,
					Sent:   clockAt(r.Intn(10000)),
				}
				req.ID = page.Inspector.NextID()
				page.Inspector.SawRequest(req)
				if r.Bool(0.8) {
					page.Inspector.SawResponse(&webreq.Response{
						RequestID: req.ID,
						Status:    []int{200, 204, 404, 500, 0}[r.Intn(5)],
						Received:  clockAt(r.Intn(12000)),
						Err:       map[bool]string{true: "reset", false: ""}[r.Bool(0.2)],
					})
				}
			case 2:
				page.Inspector.SawResponse(&webreq.Response{RequestID: int64(r.Intn(100))})
			}
		}

		o := det.Observation()
		if o.HB && o.Facet == hb.FacetUnknown && len(o.PartnersSeen) == 0 {
			return false // HB verdict with no supporting evidence
		}
		for _, a := range o.Auctions {
			if a.Winner != nil && a.Winner.Late {
				return false
			}
		}
		tc := o.Traffic
		if tc.BidRequests+tc.HostedCalls+tc.AdServer+tc.Creatives+tc.Beacons+tc.Scripts+tc.Other > o.RequestCount {
			return false // traffic categories must not over-count
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func clockAt(ms int) time.Time { return at(ms) }

// TestDetectorConsistencyAcrossChannels: when both channels observe the
// same client auction, the single-channel detectors each see a strict
// subset of the combined detector's evidence.
func TestDetectorConsistencyAcrossChannels(t *testing.T) {
	full, fullDet, _ := newTestPage("https://www.pub.example/")
	feedClientAuction(full, "adserver.pub.example")
	fo := fullDet.Observation()

	evPage, evDet, _ := newTestPageWith(Options{Events: true})
	feedClientAuction(evPage, "adserver.pub.example")
	eo := evDet.Observation()

	reqPage, reqDet, _ := newTestPageWith(Options{Requests: true})
	feedClientAuction(reqPage, "adserver.pub.example")
	ro := reqDet.Observation()

	if !fo.HB || !eo.HB {
		t.Fatal("client auction must be detected by events alone and combined")
	}
	if ro.HB && ro.Facet == hb.FacetClient {
		t.Fatal("request-only channel cannot confirm the client facet (needs events)")
	}
	if eo.EventCount != fo.EventCount {
		t.Fatal("event channel saw different events than combined")
	}
	if ro.RequestCount != fo.RequestCount {
		t.Fatal("request channel saw different requests than combined")
	}
	if eo.RequestCount != 0 || ro.EventCount != 0 {
		t.Fatal("disabled channels leaked observations")
	}
}

// newTestPageWith builds a fresh page with a detector restricted to the
// given channels. (newTestPage attaches a full detector; attaching a
// second, restricted one to the same page would double-subscribe, so the
// page is built from scratch here.)
func newTestPageWith(opts Options) (*browser.Page, *Detector, *clock.Scheduler) {
	sched := clock.NewScheduler(time.Time{})
	page := browser.NewPage(&nullEnv{sched: sched}, browser.DefaultOptions())
	page.URL = "https://www.pub.example/"
	det := AttachWithOptions(page, partners.Default(), opts)
	return page, det, sched
}
