package prebid

import (
	"fmt"
	"testing"
	"time"
)

// The protocol-ID micro-benchmark: auctionIDs writes a round's auction
// IDs into one string on the crawl hot path. The IDs, and the
// bid-request IDs, are byte-identical to the fmt.Sprintf forms they
// replaced (asserted below).

// idWrapper is a wrapper whose round has units ad units, as RequestBids
// leaves it before auctionIDs.
func idWrapper(site string, units int) *Wrapper {
	return &Wrapper{cfg: Config{Site: site, AdUnits: make([]AdUnit, units)}}
}

func BenchmarkRoundIDs(b *testing.B) {
	w := idWrapper("site00042.example", 3)
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		w.auctionSeq = i % 97
		s = w.auctionIDs()
	}
	_ = s
}

// TestIDBuildersMatchSprintf pins the builders to the exact bytes the
// fmt forms produced, so the dataset stays bit-for-bit reproducible:
// auctionIDs' IDs number on from the page's earlier rounds.
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
		w := idWrapper(c.site, c.units)
		w.auctionSeq = c.seq
		ids := w.auctionIDs()
		for k := 0; k < c.units; k++ {
			if got, want := w.auctionID(ids, k), fmt.Sprintf("%s-a%d", c.site, c.seq+k+1); got != want {
				t.Errorf("%s: auction ID %d = %q, want %q", c.site, k, got, want)
			}
		}
		if w.auctionSeq != c.seq+c.units {
			t.Errorf("%s: auction sequence %d after the round, want %d", c.site, w.auctionSeq, c.seq+c.units)
		}
		for _, bidder := range c.bidders {
			if got, want := w.bidRequestID(bidder, time.Unix(0, c.nano)), fmt.Sprintf("%s-%s-%d", c.site, bidder, c.nano); got != want {
				t.Errorf("%s: bid-request ID %q, want %q", c.site, got, want)
			}
		}
		if got := w.winNURL("adnxs.com", "aid-1", c.site, 1.2345); got != fmt.Sprintf("https://bid.%s/win?auction=%s&hb_bidder=%s&hb_price=%.4f", "adnxs.com", "aid-1", c.site, 1.2345) {
			t.Errorf("winNURL = %q", got)
		}
	}
}
