package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/overlay"
)

// TestHeldRecordsMatchFreshVisits enforces the visit-scoped storage
// contract (DESIGN.md §5.3): the pooled worker reuses its network's
// calls, its page's fetches and its detector's maps on the next visit,
// so nothing reachable from an emitted record may point into them. A
// faulted multi-day crawl on one worker holds every record until the
// crawl ends; each must still marshal to the bytes of a fresh
// VisitSimulated record for the same site and day. Faults matter here:
// PartnerErrors is the map a record shares with the detector, which is
// why Reattach drops it instead of clearing it.
func TestHeldRecordsMatchFreshVisits(t *testing.T) {
	w := smallWorld(t, 150)
	opts := DefaultOptions(23)
	opts.Workers = 1
	opts.Days = 3
	opts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{
		{Partner: "*", FailProb: 0.2, ResetMidBodyProb: 0.1, TruncateProb: 0.1, GarbleProb: 0.1},
	}}

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
	if withErrs == 0 || laterDays == 0 {
		t.Fatalf("crawl not representative: %d records with partner errors, %d on later days", withErrs, laterDays)
	}
}
