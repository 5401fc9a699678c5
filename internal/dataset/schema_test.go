package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestFieldTablesMatchTags holds each field table to the struct tags
// encoding/json reads: one entry per field, in declaration order, with
// the tag's name and omitempty flag and an accessor that points at that
// very field. A key must also need no JSON escaping, since the writer
// copies it verbatim.
func TestFieldTablesMatchTags(t *testing.T) {
	checkTable(t, siteFields)
	checkTable(t, auctionFields)
	checkTable(t, bidFields)
	checkTable(t, trafficFields)
}

func checkTable[R any](t *testing.T, fields []field[R]) {
	t.Helper()
	var r R
	v := reflect.ValueOf(&r).Elem()
	typ := v.Type()
	if len(fields) != typ.NumField() {
		t.Fatalf("%s: %d table entries for %d fields", typ.Name(), len(fields), typ.NumField())
	}
	for i := range fields {
		f, sf := &fields[i], typ.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		omit := false
		for _, o := range strings.Split(opts, ",") {
			omit = omit || o == "omitempty"
		}
		if f.key != name || f.omitempty != omit {
			t.Errorf("%s.%s: table entry %d is {%q omitempty=%v}, the tag says {%q omitempty=%v}",
				typ.Name(), sf.Name, i, f.key, f.omitempty, name, omit)
		}
		p := reflect.ValueOf(f.ptr(&r))
		if p.Kind() != reflect.Pointer || p.Type().Elem() != sf.Type || p.Pointer() != v.Field(i).Addr().Pointer() {
			t.Errorf("%s.%s: table entry %d (%q) points at a %v, not at the field", typ.Name(), sf.Name, i, f.key, p.Type())
		}
		if q, _ := json.Marshal(f.key); string(q) != `"`+f.key+`"` {
			t.Errorf("%s: key %q needs escaping", typ.Name(), f.key)
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
