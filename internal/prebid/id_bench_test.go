package prebid

import (
	"fmt"
	"testing"
	"time"
)

// The protocol-ID micro-benchmark: roundIDs writes a round's auction
// and bid-request IDs into one string on the crawl hot path. Its IDs are
// byte-identical to the fmt.Sprintf forms they replaced (asserted
// below).

// idWrapper is a wrapper whose round has units ad units and bids to the
// given bidders, as RequestBids leaves it before roundIDs.
func idWrapper(site string, units int, bidders ...string) *Wrapper {
	return &Wrapper{cfg: Config{Site: site, AdUnits: make([]AdUnit, units)}, bidders: bidders}
}

func BenchmarkRoundIDs(b *testing.B) {
	w := idWrapper("site00042.example", 3, "appnexus", "rubicon", "ix", "criteo")
	now := time.Unix(0, 1548979200000000000)
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		w.auctionSeq = i % 97
		s = w.roundIDs(now)
	}
	_ = s
}

// TestIDBuildersMatchSprintf pins the builders to the exact bytes the
// fmt forms produced, so the dataset stays bit-for-bit reproducible:
// roundIDs' auction IDs number on from the page's earlier rounds, and
// its bid-request IDs follow them in bidder order.
func TestIDBuildersMatchSprintf(t *testing.T) {
	cases := []struct {
		site    string
		units   int
		seq     int
		bidders []string
		nano    int64
	}{
		{"site00042.example", 2, 0, []string{"appnexus", "ix"}, 1},
		{"s.example", 1, 9, []string{"emx_digital"}, 1548979200123456789},
		{"x", 3, 98, nil, 0},
		{"y", 0, 0, []string{"a"}, -5},
	}
	for _, c := range cases {
		w := idWrapper(c.site, c.units, c.bidders...)
		w.auctionSeq = c.seq
		ids := w.roundIDs(time.Unix(0, c.nano))
		var want []string
		for i := 1; i <= c.units; i++ {
			want = append(want, fmt.Sprintf("%s-a%d", c.site, c.seq+i))
		}
		for _, bidder := range c.bidders {
			want = append(want, fmt.Sprintf("%s-%s-%d", c.site, bidder, c.nano))
		}
		for k, wid := range want {
			if got := w.roundID(ids, k); got != wid {
				t.Errorf("%s: ID %d = %q, want %q", c.site, k, got, wid)
			}
		}
		if w.auctionSeq != c.seq+c.units {
			t.Errorf("%s: auction sequence %d after the round, want %d", c.site, w.auctionSeq, c.seq+c.units)
		}
		if got := winNURL("adnxs.com", "aid-1", c.site, 1.2345); got != fmt.Sprintf("https://bid.%s/win?auction=%s&hb_bidder=%s&hb_price=%.4f", "adnxs.com", "aid-1", c.site, 1.2345) {
			t.Errorf("winNURL = %q", got)
		}
	}
}
