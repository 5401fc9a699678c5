package crawler

import (
	"slices"
	"strings"
	"testing"

	"headerbid/internal/urlkit"
)

// TestPrefilledQueriesMatchTheWire: a builder that hands its request the
// query it just encoded (webreq.Request.PrefillParams) must hand over
// exactly what ParseQuery reads back from the URL — same pairs, same
// key order — or the ad servers and the detector would see a query the
// wire does not carry. Every HB site of a small world is visited, so
// every builder on the crawl path runs: bid requests, sync pixels,
// hosted auctions, both ad-server calls and the creative URLs.
func TestPrefilledQueriesMatchTheWire(t *testing.T) {
	w := smallWorld(t, 600)
	opts := DefaultOptions(5)
	vrt := newVisitRuntime()
	seen := map[string]int{}
	shapes := []string{"/hb/v1/bid", "/pixel", "/ssp/auction", "/gampad/", "/serve", "/render"}
	for _, s := range w.HBSites() {
		vrt.visit(w, s, 0, opts, nil, nil)
		for _, x := range vrt.page.Inspector.Exchanges() {
			req := x.Request
			got, want := req.Params(), urlkit.ParseQuery(req.URL)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("%s: %s carries query %v, wire parses to %v", s.Domain, req.URL, got, want)
			}
			for _, shape := range shapes {
				if strings.Contains(req.URL, shape) {
					seen[shape]++
				}
			}
		}
	}
	for _, shape := range shapes {
		if seen[shape] == 0 {
			t.Errorf("no %s request among the visits", shape)
		}
	}
}
