package crawler

import (
	"slices"
	"strings"
	"testing"

	"headerbid/internal/hb"
	"headerbid/internal/overlay"
	"headerbid/internal/sitegen"
)

// TestAdServerBodiesScanLikeSplit: every ad-server and hosted-auction
// body a wrapper receives must scan (hb.SlotScanner) to the lines,
// fields and fail flags of the strings.Split reading the wrappers used
// before. Every HB site of a small world is visited clean and again
// under a fault overlay that truncates partner response bodies, which
// cuts hosted and DFP bodies mid-line. The test must see bodies read by
// prebid, gptlib and pubfood, and at least one truncated body: a faulted
// body that is a proper prefix of the clean visit's body for the same
// request.
func TestAdServerBodiesScanLikeSplit(t *testing.T) {
	w := smallWorld(t, 600)
	opts := DefaultOptions(5)
	fopts := opts
	fopts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{{Partner: "*", TruncateProb: 0.5}}}
	faults, err := compileFaults(w, fopts.Overlay)
	if err != nil {
		t.Fatal(err)
	}
	vrt := newVisitRuntime()
	seen := map[string]int{}
	for _, s := range w.HBSites() {
		clean := map[string]string{}
		for _, faulted := range []bool{false, true} {
			if faulted {
				vrt.visit(w, s, 0, fopts, faults, nil)
			} else {
				vrt.visit(w, s, 0, opts, nil, nil)
			}
			for _, x := range vrt.page.Inspector.Exchanges() {
				reader := bodyReader(s, x.Request.URL)
				if reader == "" || x.Response == nil || !x.Response.OK() {
					continue
				}
				body := x.Response.Body
				var got []hb.SlotLine
				sc := hb.ScanSlotLines(body)
				for l, ok := sc.Next(); ok; l, ok = sc.Next() {
					got = append(got, l)
				}
				if want := splitSlotLines(body); !slices.Equal(got, want) {
					t.Fatalf("%s: %s body %q scans to %+v, strings.Split gives %+v", s.Domain, reader, body, got, want)
				}
				seen[reader]++
				if !faulted {
					clean[x.Request.URL] = body
				} else if cb, ok := clean[x.Request.URL]; ok && len(body) < len(cb) && strings.HasPrefix(cb, body) {
					seen["truncated"]++
				}
			}
		}
	}
	t.Logf("bodies read: %v", seen)
	for _, kind := range []string{"prebid", "gptlib", "pubfood", "truncated"} {
		if seen[kind] == 0 {
			t.Errorf("no %s body among the visits (saw %v)", kind, seen)
		}
	}
}

// bodyReader names the wrapper that reads the response to a request of
// site s: gptlib reads hosted auctions, the site's client-side library
// its ad server's answer (DFP's for hybrid sites). It is "" for any
// other request.
func bodyReader(s *sitegen.Site, url string) string {
	switch {
	case strings.Contains(url, "/ssp/auction"):
		return "gptlib"
	case strings.HasPrefix(url, s.AdServerURL()+"?"):
		return s.Library
	}
	return ""
}

// splitSlotLines is the strings.Split reading of a response body the
// wrappers used before hb.SlotScanner.
func splitSlotLines(body string) []hb.SlotLine {
	var out []hb.SlotLine
	for _, line := range strings.Split(body, "\n") {
		parts := strings.Split(strings.TrimSpace(line), "|")
		if len(parts) < 3 {
			continue
		}
		out = append(out, hb.SlotLine{Slot: parts[0], Channel: parts[1], CreativeURL: parts[2],
			Fails: len(parts) > 3 && parts[3] == "fail"})
	}
	return out
}
