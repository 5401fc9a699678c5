package dataset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/scenario"
	"headerbid/internal/sitegen"
)

// The fast path must cover everything Writer emits: a line without a
// string escape that falls back to encoding/json is a silent slowdown,
// so these tests pin coverage, not just equality.

// fullRecord sets every field of SiteRecord, of its first auction, of
// that auction's first bid and of its traffic; checkAllSet proves it.
func fullRecord() *dataset.SiteRecord {
	return &dataset.SiteRecord{
		Domain: "site00008.example", Rank: 8, VisitDay: 2, HB: true, Facet: "hybrid",
		Libraries: []string{"gpt.js", "prebid.js"},
		Partners:  []string{"dfp", "ix"},
		Winners:   []string{"ix"},
		Auctions: []dataset.AuctionRecord{
			{ID: "site00008.example-a1", AdUnit: "div-gpt-ad-1", Size: "300x250", DurationMS: 741.114645,
				Bids: []dataset.BidRecord{
					{Bidder: "ix", CPM: 0.0608, Size: "300x250", Late: true, LatencyMS: 741.114645, Source: "client"},
					{Bidder: "rubicon", CPM: 0.1691},
				},
				Winner: "ix", WinnerCPM: 0.0608, Rendered: true, Failed: true},
			{ID: "site00008.example-a2", AdUnit: "div-gpt-ad-2"},
		},
		TotalHBLatencyMS: 1166.248556,
		AdSlotsAuctioned: 2,
		PartnerLatencyMS: map[string][]float64{"ix": {741.114645}, "rubicon": {3000.5, 12}},
		Traffic: dataset.TrafficRecord{BidRequests: 1, HostedCalls: 2, AdServer: 1, Creatives: 2,
			Beacons: 3, Scripts: 4, Other: 5},
		PartnerErrors: map[string]int{"appnexus": 2, "ix": 1},
		Retries:       3,
		Abandoned:     1,
		Quarantined:   true,
		PanicSite:     "prebid.onBidResponse",
		Loaded:        true,
		TimedOut:      true,
		Err:           "page load timeout",
	}
}

// checkAllSet fails for every zero field of v, a struct, and recurses
// into struct fields and the first element of struct slices. A field
// added to a record type then fails here until fullRecord sets it, and
// then fails TestFastPathCoversFullRecord until the fast path decodes it.
func checkAllSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		if f.IsZero() {
			t.Errorf("%s is not set", name)
			continue
		}
		switch {
		case f.Kind() == reflect.Struct:
			checkAllSet(t, name, f)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
			checkAllSet(t, name+"[0]", f.Index(0))
		}
	}
}

func writeLines(t *testing.T, recs ...*dataset.SiteRecord) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	w := dataset.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

// checkFastPath requires every line without a backslash to decode on
// the fast path, through one decoder, to the json.Unmarshal record.
func checkFastPath(t *testing.T, lines [][]byte) (fast int) {
	t.Helper()
	d := dataset.NewFastDecoder()
	for n, line := range lines {
		var want dataset.SiteRecord
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if bytes.IndexByte(line, '\\') >= 0 {
			continue
		}
		got, ok := d.Decode(line)
		if !ok {
			t.Fatalf("line %d fell back to encoding/json: %s", n+1, line)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("line %d diverged:\nfast %#v\njson %#v", n+1, *got, want)
		}
		fast++
	}
	return fast
}

func TestFastPathCoversFullRecord(t *testing.T) {
	rec := fullRecord()
	checkAllSet(t, "SiteRecord", reflect.ValueOf(rec).Elem())
	lines := writeLines(t, rec)
	if len(lines) != 1 || bytes.IndexByte(lines[0], '\\') >= 0 {
		t.Fatalf("want one line without escapes, got %q", lines)
	}
	if checkFastPath(t, lines) != 1 {
		t.Fatal("full record did not decode on the fast path")
	}
}

// TestFastPathCoversChaosCrawl decodes every variant of a ChaosAxis
// sweep, whose records carry transport errors, retries, failed auctions
// and late bids.
func TestFastPathCoversChaosCrawl(t *testing.T) {
	cfg := sitegen.DefaultConfig(11)
	cfg.NumSites = 300
	var recs []*dataset.SiteRecord
	sw := &scenario.Sweep{
		World:       sitegen.Generate(cfg),
		Opts:        crawler.DefaultOptions(11),
		Axes:        []scenario.Axis{scenario.ChaosAxis()},
		Concurrency: 1,
		Emit: func(_, _ string, v crawler.Visit) error {
			recs = append(recs, v.Record)
			return nil
		},
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := writeLines(t, recs...)
	all := bytes.Join(lines, nil)
	for _, key := range []string{`"partner_latency_ms"`, `"partner_errors"`, `"retries"`, `"late"`, `"failed"`} {
		if !bytes.Contains(all, []byte(key)) {
			t.Errorf("no line carries %s: the sweep no longer covers it", key)
		}
	}
	if fast := checkFastPath(t, lines); fast == 0 {
		t.Fatalf("none of %d lines decoded on the fast path", len(lines))
	}
}
