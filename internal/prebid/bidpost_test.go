package prebid

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"headerbid/internal/partners"
	"headerbid/internal/rtb"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// TestRetriedBidPostAllocs: every attempt of a bid POST, the
// retransmissions too, carries its URL and query as its profile
// rendered them once, so building one allocates nothing. The URL is
// the bid URL, tagged "&retry=N" on retransmission N, and the prefilled
// query is the URL's own.
func TestRetriedBidPostAllocs(t *testing.T) {
	p, ok := partners.Default().BySlug("appnexus")
	if !ok {
		t.Fatal("no appnexus profile")
	}
	payload := &rtb.BidRequest{ID: "site00042.example-appnexus-1", Imp: []rtb.Impression{{ID: "div-gpt-ad-1"}}}
	bodyLen, err := payload.EncodedLen()
	if err != nil {
		t.Fatal(err)
	}
	sent := time.Unix(1548979200, 0)
	for attempt := 0; attempt <= MaxBidRetries; attempt++ {
		var req webreq.Request
		BidPost(&req, p, payload, bodyLen, attempt, sent)
		want := "https://bid." + p.Host + "/hb/v1/bid?bidder=" + p.Slug
		if attempt > 0 {
			want += "&retry=" + strconv.Itoa(attempt)
		}
		var wire urlkit.Queries
		if req.URL != want || !slices.Equal(req.Params(), wire.Parse(want)) {
			t.Fatalf("attempt %d: %s %s with query %v, want %s", attempt, req.Method, req.URL, req.Params(), want)
		}
		if req.Method != webreq.POST || req.Payload() != any(payload) || req.BodyLen() != bodyLen || !req.Sent.Equal(sent) {
			t.Fatalf("attempt %d: request %+v", attempt, req)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	var req webreq.Request
	if n := testing.AllocsPerRun(100, func() {
		req = webreq.Request{}
		BidPost(&req, p, payload, bodyLen, MaxBidRetries, sent)
	}); n != 0 {
		t.Fatalf("a retried bid POST allocates %.1f times, want 0", n)
	}
}
