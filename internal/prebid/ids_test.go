package prebid

import (
	"fmt"
	"testing"
	"time"
)

// The protocol IDs: a page's auction IDs are built once per config
// (Dialect.AuctionIDs), and the wrapper slices them per ad unit as
// RequestBids opens the round; bid-request IDs and win notifications are
// written into the wrapper's string chunks. All are byte-identical to
// the fmt.Sprintf forms they replaced (asserted below).

// TestIDBuildersMatchSprintf pins the builders to the exact bytes the
// fmt forms produced, so the dataset stays bit-for-bit reproducible, for
// prebid.js's dialect and for one shaped like pubfood.js's.
func TestIDBuildersMatchSprintf(t *testing.T) {
	pf := &Dialect{Library: "pubfood.js", AuctionTag: "-pf", BidIDPrefix: "pf-"}
	cases := []struct {
		site    string
		units   int
		bidders []string
		nano    int64
	}{
		{"site00042.example", 2, []string{"appnexus", "ix"}, 1},
		{"s.example", 12, []string{"emx_digital"}, 1548979200123456789},
		{"x", 103, nil, 0},
		{"y", 0, []string{"a"}, -5},
	}
	for _, d := range []*Dialect{&PrebidJS, pf} {
		for _, c := range cases {
			cfg := Config{Dialect: d, Site: c.site, AdUnits: make([]AdUnit, c.units),
				AuctionIDs: d.AuctionIDs(c.site, c.units)}
			env := newFakeEnv()
			env.respond = bidderResponder(nil, nil)
			var w Wrapper
			w.Reset(env, nil, nil, cfg)
			w.RequestBids(nil)
			want := ""
			for k := 0; k < c.units; k++ {
				id := fmt.Sprintf("%s%s%d", c.site, d.AuctionTag, k+1)
				if got := w.units[k].AuctionID; got != id {
					t.Errorf("%s %s: auction ID %d = %q, want %q", d.Library, c.site, k, got, id)
				}
				want += id
			}
			if cfg.AuctionIDs != want {
				t.Errorf("%s %s: AuctionIDs = %q, want %q", d.Library, c.site, cfg.AuctionIDs, want)
			}
			for _, bidder := range c.bidders {
				want := fmt.Sprintf("%s-%s-%d", c.site, bidder, c.nano)
				if d.BidIDPrefix != "" {
					want = fmt.Sprintf("%s%s-%d", d.BidIDPrefix, bidder, c.nano)
				}
				if got := w.bidRequestID(bidder, time.Unix(0, c.nano)); got != want {
					t.Errorf("%s %s: bid-request ID %q, want %q", d.Library, c.site, got, want)
				}
			}
			if got := w.winNURL("adnxs.com", "aid-1", c.site, 1.2345); got != fmt.Sprintf("https://bid.%s/win?auction=%s&hb_bidder=%s&hb_price=%.4f", "adnxs.com", "aid-1", c.site, 1.2345) {
				t.Errorf("winNURL = %q", got)
			}
		}
	}
}
