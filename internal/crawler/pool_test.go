package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/overlay"
	"headerbid/internal/sitegen"
)

// TestHeldRecordsMatchFreshVisits enforces the visit-scoped storage
// contract (DESIGN.md §5.3): the pooled worker reuses its network's
// calls, its page's requests, fetches and timers, its detector's maps,
// its wrappers' rounds and its ecosystem's streams and ad servers on the
// next visit, so no visit may see what the previous one left and
// nothing reachable from an emitted record may point into that storage.
// A multi-day crawl on one worker holds every record until the crawl
// ends; each must still marshal to the bytes of a fresh VisitSimulated
// record for the same site and day. The world has every facet, pubfood,
// bad-wrapper and send-all-bids pages, visited in rank order so the
// facets alternate, and the crawl runs clean, under a 50% transport
// fault overlay and under mixed faults. Faults matter here:
// PartnerErrors is the map a record shares with the detector, which is
// why Reattach drops it instead of clearing it, and retries exercise
// the wrappers' retry timers.
func TestHeldRecordsMatchFreshVisits(t *testing.T) {
	w := smallWorld(t, 600)
	requireVariety(t, w)
	for _, c := range []struct {
		name   string
		ov     *overlay.Overlay
		faults bool
	}{
		{"clean", nil, false},
		{"transport faults", &overlay.Overlay{Faults: []overlay.Fault{{Partner: "*", FailProb: 0.5}}}, true},
		{"mixed faults", &overlay.Overlay{Faults: []overlay.Fault{
			{Partner: "*", FailProb: 0.2, ResetMidBodyProb: 0.1, TruncateProb: 0.1, GarbleProb: 0.1},
		}}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions(23)
			opts.Workers = 1
			opts.Days = 3
			opts.Overlay = c.ov

			var held []*dataset.SiteRecord
			if err := CrawlStream(context.Background(), w, opts, func(v Visit) error {
				held = append(held, v.Record)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			withErrs, laterDays := 0, 0
			for _, rec := range held {
				if len(rec.PartnerErrors) > 0 {
					withErrs++
				}
				if rec.VisitDay > 0 {
					laterDays++
				}
				s, ok := w.SiteByDomain(rec.Domain)
				if !ok {
					t.Fatalf("unknown domain %s", rec.Domain)
				}
				got, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(VisitSimulated(w, s, rec.VisitDay, opts))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s day %d: held record differs from a fresh visit\nheld  %s\nfresh %s",
						rec.Domain, rec.VisitDay, got, want)
				}
			}
			if laterDays == 0 || (withErrs == 0) == c.faults {
				t.Fatalf("crawl not representative: %d records with partner errors, %d on later days", withErrs, laterDays)
			}
		})
	}
}

// requireVariety fails unless the world's HB pages cover what the pooled
// protocol state must survive: every facet, pubfood, a bad wrapper and
// send-all-bids, with the facet changing between consecutive HB pages.
func requireVariety(t *testing.T, w *sitegen.World) {
	t.Helper()
	facets := map[hb.Facet]int{}
	pubfood, bad, sendAll, switches := 0, 0, 0, 0
	var prev *sitegen.Site
	for _, s := range w.HBSites() {
		facets[s.Facet]++
		if s.Library == "pubfood" {
			pubfood++
		}
		if s.BadWrapper {
			bad++
		}
		if s.SendAllBids && s.Facet != hb.FacetServer {
			sendAll++
		}
		if prev != nil && prev.Facet != s.Facet {
			switches++
		}
		prev = s
	}
	if len(facets) != 3 || pubfood == 0 || bad == 0 || sendAll == 0 || switches < 20 {
		t.Fatalf("world lacks variety: facets %v, pubfood %d, bad wrappers %d, send-all-bids %d, facet switches %d",
			facets, pubfood, bad, sendAll, switches)
	}
}
