package crawler

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"headerbid/internal/overlay"
	"headerbid/internal/rtb"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// TestPrefilledQueriesMatchTheWire: a builder that hands its request the
// query it just encoded (webreq.Request.PrefillParams) must hand over
// exactly what urlkit.Queries.Parse reads back from the URL — same pairs, same
// key order — or the ad servers and the detector would see a query the
// wire does not carry. Every HB site of a small world is visited, so
// every builder on the crawl path runs: bid requests, sync pixels,
// hosted auctions, both ad-server calls and the creative URLs.
//
// A value the builder writes into the URL alone (the sync pixel's uid,
// the ad-server call's time "t") must be a substring of the URL, not a
// string of its own.
//
// The same holds for bodies: every bid POST hands the partner the bid
// request it sends (webreq.Request.SetPayload), and its body must be
// that request's encoding, of the length the network counted, built
// only when something reads it. Each site is visited a second time
// under transport faults, so the check also covers retransmissions, and
// it must see prebid and pubfood requests.
func TestPrefilledQueriesMatchTheWire(t *testing.T) {
	w := smallWorld(t, 600)
	opts := DefaultOptions(5)
	fopts := opts
	fopts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{{Partner: "*", FailProb: 0.5}}}
	faults, err := compileFaults(w, fopts.Overlay)
	if err != nil {
		t.Fatal(err)
	}
	vrt := newVisitRuntime()
	seen := map[string]int{}
	shapes := []string{"/hb/v1/bid", "/pixel", "/ssp/auction", "/gampad/", "/serve", "/render"}
	for _, s := range w.HBSites() {
		for _, faulted := range []bool{false, true} {
			if faulted {
				vrt.visit(w, s, 0, fopts, faults, nil)
			} else {
				vrt.visit(w, s, 0, opts, nil, nil)
			}
			for _, x := range vrt.page.Inspector.Exchanges() {
				req := x.Request
				var wire urlkit.Queries
				got, want := req.Params(), wire.Parse(req.URL)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s: %s carries query %v, wire parses to %v", s.Domain, req.URL, got, want)
				}
				for _, key := range []string{"uid", "t"} {
					if v, ok := got.Lookup(key); ok {
						if !substringOf(v, req.URL) {
							t.Fatalf("%s: %s carries %s=%s in a string of its own", s.Domain, req.URL, key, v)
						}
						seen[key]++
					}
				}
				for _, shape := range shapes {
					if strings.Contains(req.URL, shape) {
						seen[shape]++
					}
				}
				if kind := checkPrefilledBody(t, s.Domain, req); kind != "" {
					seen[kind]++
				}
			}
		}
	}
	for _, shape := range append(shapes, "uid", "t", "prebid bid", "pubfood bid", "retried bid") {
		if seen[shape] == 0 {
			t.Errorf("no %s request among the visits", shape)
		}
	}
}

// substringOf reports whether sub's bytes lie inside s's.
func substringOf(sub, s string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(sub))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= lo && p+uintptr(len(sub)) <= lo+uintptr(len(s))
}

// checkPrefilledBody fails the test unless a bid POST carries a typed
// body whose bytes are built on this first read, are the typed
// request's encoding, are as long as BodyLen says and decode back to
// it. It names the kind of bid the POST was ("" for any other request).
func checkPrefilledBody(t *testing.T, site string, req *webreq.Request) string {
	t.Helper()
	v := req.Payload()
	if v == nil {
		if strings.Contains(req.URL, "/hb/v1/bid") {
			t.Fatalf("%s: bid POST %s carries no typed body", site, req.URL)
		}
		return ""
	}
	typed, ok := v.(*rtb.BidRequest)
	if !ok {
		t.Fatalf("%s: %s carries a typed body of type %T", site, req.URL, v)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	body := req.Body()
	if runtime.ReadMemStats(&ms); ms.Mallocs == mallocs {
		t.Fatalf("%s: bid POST %s had its body built before anything read it", site, req.URL)
	}
	enc, err := typed.AppendJSON(nil)
	if err != nil || body != string(enc) || req.BodyLen() != len(body) {
		t.Fatalf("%s: %s has a %d-byte body %q, its bid request encodes to %q (err %v)", site, req.URL, req.BodyLen(), body, enc, err)
	}
	var wire rtb.BidRequest
	if err := rtb.UnmarshalBidRequest(body, &wire); err != nil || !reflect.DeepEqual(*typed, wire) {
		t.Fatalf("%s: %s carries bid request %+v, its body decodes to %+v (err %v)", site, req.URL, *typed, wire, err)
	}
	switch {
	case strings.Contains(req.URL, "retry="):
		return "retried bid"
	case strings.HasPrefix(typed.ID, "pf-"):
		return "pubfood bid"
	default:
		return "prebid bid"
	}
}
