package prebid

import (
	"fmt"
	"testing"
)

// The protocol-ID micro-benchmarks: the strconv-append builders that
// mint auction and bid-request IDs on the crawl hot path. Their outputs
// are byte-identical to the fmt.Sprintf forms they replaced (asserted
// below).

func BenchmarkAuctionID_Builder(b *testing.B) {
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		s = appendID("site00042.example", "-a", int64(i%97+1))
	}
	_ = s
}

func BenchmarkBidRequestID_Builder(b *testing.B) {
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		s = bidRequestID("site00042.example", "appnexus", 1548979200000000000+int64(i))
	}
	_ = s
}

// TestIDBuildersMatchSprintf pins the builders to the exact bytes the
// fmt forms produced, so the dataset stays bit-for-bit reproducible.
func TestIDBuildersMatchSprintf(t *testing.T) {
	cases := []struct {
		site, bidder string
		n            int64
	}{
		{"site00042.example", "appnexus", 1},
		{"s.example", "emx_digital", 1548979200123456789},
		{"x", "a", 0},
	}
	for _, c := range cases {
		if got, want := appendID(c.site, "-a", c.n), fmt.Sprintf("%s-a%d", c.site, c.n); got != want {
			t.Errorf("appendID = %q, want %q", got, want)
		}
		if got, want := bidRequestID(c.site, c.bidder, c.n), fmt.Sprintf("%s-%s-%d", c.site, c.bidder, c.n); got != want {
			t.Errorf("bidRequestID = %q, want %q", got, want)
		}
		if got, want := winNURL("adnxs.com", "aid-1", c.bidder, 1.2345), fmt.Sprintf("https://bid.%s/win?auction=%s&hb_bidder=%s&hb_price=%.4f", "adnxs.com", "aid-1", c.bidder, 1.2345); got != want {
			t.Errorf("winNURL = %q, want %q", got, want)
		}
	}
}
