package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"headerbid/internal/rtb/jsonkit"
)

// TestFieldTablesMatchTags holds each of the four field tables to the
// struct tags encoding/json reads (jsonkit.CheckTable).
func TestFieldTablesMatchTags(t *testing.T) {
	for _, err := range []error{
		jsonkit.CheckTable(siteFields),
		jsonkit.CheckTable(auctionFields),
		jsonkit.CheckTable(bidFields),
		jsonkit.CheckTable(trafficFields),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestTrafficAlwaysWritten: omitempty has no effect on a struct in
// encoding/json, so a record with no traffic still writes the member.
func TestTrafficAlwaysWritten(t *testing.T) {
	rec := &SiteRecord{Domain: "a.example"}
	var got, want bytes.Buffer
	w := NewWriter(&got)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&want).Encode(rec); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || !strings.Contains(got.String(), `"traffic":{}`) {
		t.Fatalf("zero-traffic record: writer %q, encoding/json %q", got.String(), want.String())
	}
}

// TestWriteCountsOnlyWrittenRecords: a record JSON cannot represent
// (here a NaN latency) fails with encoding/json's error, writes nothing
// and is not counted.
func TestWriteCountsOnlyWrittenRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	good := &SiteRecord{Domain: "a.example", Loaded: true}
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	var nan float64
	nan = nan / nan
	bad := &SiteRecord{Domain: "b.example", PartnerLatencyMS: map[string][]float64{"ix": {12, nan}}}
	err := w.Write(bad)
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("NaN latency: err %v, want encoding/json's unsupported-value error", err)
	}
	if w.Count() != 1 {
		t.Fatalf("Count() = %d after one written and one failed record, want 1", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(good)
	if buf.String() != string(want)+"\n" {
		t.Fatalf("output %q, want only the good record", buf.String())
	}
}
