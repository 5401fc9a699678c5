package adserver

import (
	"testing"
	"testing/quick"

	"headerbid/internal/hb"
)

func newServer(seed int64) *Server {
	return start(DefaultConfig(seed))
}

// start builds a server the way the crawl does: from a book, by Reset.
func start(cfg Config) *Server {
	s := new(Server)
	s.Reset(NewBook(cfg))
	return s
}

func TestDecideHBWinsAboveFloor(t *testing.T) {
	s := newServer(1)
	hits := 0
	for i := 0; i < 200; i++ {
		d := s.Decide(Request{
			Site: "x.example", AdUnit: "u1", Size: hb.SizeMediumRectangle,
			Targeting: hb.Targeting{hb.KeyBidder: "appnexus", hb.KeyPriceBuck: "2.50"},
		})
		if d.Channel == "hb" {
			hits++
			if d.Bidder != "appnexus" || d.CPM != 2.5 {
				t.Fatalf("hb decision mangled: %+v", d)
			}
		}
	}
	// A 2.50 CPM bid clears the default floor; it loses only to a rare
	// higher direct order.
	if hits < 150 {
		t.Fatalf("hb won only %d/200 with a high bid", hits)
	}
}

func TestDecideHBBelowFloorNeverWins(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.FloorCPM = 0.5
	s := start(cfg)
	for i := 0; i < 100; i++ {
		d := s.Decide(Request{
			Site: "x.example", AdUnit: "u1", Size: hb.SizeMediumRectangle,
			Targeting: hb.Targeting{hb.KeyBidder: "sovrn", hb.KeyPriceBuck: "0.10"},
		})
		if d.Channel == "hb" {
			t.Fatalf("bid below floor won: %+v", d)
		}
		if d.HBCleared {
			t.Fatalf("HBCleared set for sub-floor bid")
		}
	}
}

func TestDecideNoTargetingFallsThrough(t *testing.T) {
	s := newServer(3)
	channels := map[string]int{}
	for i := 0; i < 300; i++ {
		d := s.Decide(Request{Site: "x.example", AdUnit: "u", Size: hb.SizeLeaderboard})
		channels[d.Channel]++
		if d.Channel == "hb" {
			t.Fatalf("hb won without targeting")
		}
	}
	if channels["house"] == 0 {
		t.Fatalf("house never filled: %v", channels)
	}
}

func TestDirectOrderConsumesImpressions(t *testing.T) {
	// Force direct fills with a config that always has direct demand.
	cfg := DefaultConfig(11)
	cfg.DirectFill = 1.0
	s := start(cfg)
	var direct *LineItem
	for i := range s.items {
		if s.items[i].Type == Direct {
			direct = &s.items[i]
			break
		}
	}
	if direct == nil {
		t.Skip("no direct line items for this seed")
	}
	before := direct.Remaining
	for i := 0; i < 50; i++ {
		s.Decide(Request{Site: "x", AdUnit: "u", Size: direct.Sizes[0]})
	}
	if direct.Remaining >= before {
		t.Fatalf("direct order not consumed: %d -> %d", before, direct.Remaining)
	}
}

func TestLineItemMatches(t *testing.T) {
	li := LineItem{Sizes: []hb.Size{hb.SizeMediumRectangle}}
	if !li.Matches(hb.SizeMediumRectangle) || li.Matches(hb.SizeLeaderboard) {
		t.Fatal("size matching wrong")
	}
	anyLI := LineItem{}
	if !anyLI.Matches(hb.SizeLeaderboard) {
		t.Fatal("size-less line item should match everything")
	}
}

func TestDecisionLatencyPositive(t *testing.T) {
	s := newServer(5)
	for i := 0; i < 50; i++ {
		d := s.Decide(Request{Site: "x", AdUnit: "u", Size: hb.SizeMediumRectangle})
		if d.Elapsed <= 0 {
			t.Fatalf("decision has no latency: %+v", d)
		}
	}
}

// TestFillRateByChannelSumsToOne: over a run of decisions, the shares of
// the five channels sum to one (every decision fills exactly one).
func TestFillRateByChannelSumsToOne(t *testing.T) {
	s := newServer(6)
	fills := map[string]int{"hb": 0, "direct": 0, "price-priority": 0, "house": 0, "unfilled": 0}
	const n = 200
	for i := 0; i < n; i++ {
		d := s.Decide(Request{Site: "x", AdUnit: "u", Size: hb.SizeMediumRectangle})
		if _, ok := fills[d.Channel]; !ok {
			t.Fatalf("decision %d in unknown channel %q", i, d.Channel)
		}
		fills[d.Channel]++
	}
	var total float64
	for _, f := range fills {
		total += float64(f) / n
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("fill rates sum to %v", total)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := newServer(42), newServer(42)
	for i := 0; i < 100; i++ {
		req := Request{Site: "x", AdUnit: "u", Size: hb.SizeMediumRectangle,
			Targeting: hb.Targeting{hb.KeyBidder: "ix", hb.KeyPriceBuck: "0.30"}}
		da, db := a.Decide(req), b.Decide(req)
		if da.Channel != db.Channel || da.CPM != db.CPM {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

// Property: every decision lands in a known channel and CPM is coherent.
func TestDecisionInvariantsProperty(t *testing.T) {
	f := func(seed int64, pb uint8) bool {
		s := newServer(seed)
		cpm := float64(pb) / 50 // 0..5.1
		d := s.Decide(Request{
			Site: "x", AdUnit: "u", Size: hb.SizeMediumRectangle,
			Targeting: hb.Targeting{hb.KeyBidder: "openx", hb.KeyPriceBuck: hb.PriceBucket(cpm)},
		})
		switch d.Channel {
		case "hb", "direct", "price-priority", "house", "unfilled":
		default:
			return false
		}
		if d.Channel == "hb" && d.CPM < s.cfg.FloorCPM-1e-9 {
			return false
		}
		if d.Channel == "house" && d.CPM != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLineItemTypeString(t *testing.T) {
	if Direct.String() != "direct" || House.String() != "house" ||
		PricePriority.String() != "price-priority" {
		t.Fatal("type strings wrong")
	}
	if LineItemType(99).String() != "unknown" {
		t.Fatal("unknown type string wrong")
	}
}

// TestResetRestartsFromBook: a server restarted from a book decides
// exactly as a fresh server of the same book, however much an earlier
// run on it consumed. Direct orders always fill here, so the run
// exhausts them (Remaining reaches 0) and the channel sequence shows
// whether the restart restored their counts and the stream.
func TestResetRestartsFromBook(t *testing.T) {
	cfg := DefaultConfig(6) // three direct orders for 300x250, 18,016 impressions in all
	cfg.DirectFill = 1
	channels := func(s *Server) []string {
		out := make([]string, 0, 25000)
		for i := 0; i < cap(out); i++ {
			out = append(out, s.Decide(Request{Site: "x", AdUnit: "u", Size: hb.SizeMediumRectangle}).Channel)
		}
		return out
	}
	want := channels(start(cfg))
	if want[0] != "direct" || want[len(want)-1] == "direct" {
		t.Fatalf("direct orders did not run out: first %s, last %s", want[0], want[len(want)-1])
	}
	book := NewBook(cfg)
	s := start(cfg)
	for run := 0; run < 2; run++ {
		s.Reset(book)
		got := channels(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d, decision %d: %s after Reset, %s on a fresh server", run, i, got[i], want[i])
			}
		}
	}
}
