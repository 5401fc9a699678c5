package dataset

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestDecodedStringsOwnTheirBytes: ReadStream's line is the scanner's
// buffer, overwritten by the next line, so nothing decoded may alias it.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	d := newLineDecoder()
	for _, line := range writtenLines(t, fuzzRecords()) {
		buf := []byte(line)
		var want SiteRecord
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatal(err)
		}
		var got SiteRecord
		if !d.decode(buf, &got) {
			t.Fatalf("fast path declined %s", line)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record changed with the line's buffer:\ngot  %#v\nwant %#v", got, want)
		}
	}
}

// TestInternTableIsCapped: hostile input with ever-new vocabulary
// strings, or long ones, cannot grow the per-stream intern table past
// its bounds; past them strings are still decoded, just copied.
func TestInternTableIsCapped(t *testing.T) {
	d := newLineDecoder()
	long := strings.Repeat("f", maxInternLen+1)
	var rec SiteRecord
	if !d.decode([]byte(`{"facet":"`+long+`"}`), &rec) || rec.Facet != long {
		t.Fatalf("long facet decoded as %q", rec.Facet)
	}
	if len(d.intern) != 0 {
		t.Fatalf("a %d-byte string was interned", len(long))
	}
	for i := 0; i < maxInterned+10; i++ {
		slug := "p" + strconv.Itoa(i)
		rec = SiteRecord{}
		if !d.decode([]byte(`{"partners":["`+slug+`"]}`), &rec) || rec.Partners[0] != slug {
			t.Fatalf("partner %d decoded as %q", i, rec.Partners)
		}
	}
	if len(d.intern) != maxInterned {
		t.Fatalf("intern table holds %d strings, cap %d", len(d.intern), maxInterned)
	}
}

// TestDecodeRecordAllocs pins the fast decoder's allocations per record
// around Go's small-map boundary: a map of up to 8 keys is one small
// map, and a 9th grows it into a table. With a warm decoder (its
// vocabulary interned) a record costs its domain's copy, and a
// non-empty partner_latency_ms adds the values' backing array and the
// map. Assigning a key of a full small map twice grows it into a table,
// +3 allocations on the 8-key record that a benchmark over 2-key maps
// does not see.
func TestDecodeRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	d := newLineDecoder()
	for _, c := range []struct {
		keys   int
		allocs float64
	}{{0, 1}, {1, 4}, {8, 4}, {9, 6}, {16, 6}} {
		in := &SiteRecord{Domain: "site00001.example", Rank: 1}
		if c.keys > 0 {
			in.PartnerLatencyMS = make(map[string][]float64, c.keys)
			for i := 0; i < c.keys; i++ {
				in.PartnerLatencyMS["partner"+strconv.Itoa(i)] = []float64{float64(100 + i)}
			}
		}
		line := []byte(writtenLines(t, []*SiteRecord{in})[0])
		var rec SiteRecord
		if !d.decode(line, &rec) || len(rec.PartnerLatencyMS) != c.keys {
			t.Fatalf("%d keys: fast path declined or lost keys: %s", c.keys, line)
		}
		got := testing.AllocsPerRun(100, func() {
			rec = SiteRecord{}
			d.decode(line, &rec)
		})
		if got != c.allocs {
			t.Errorf("%d latency keys: %v allocations per record, pinned at %v (update the pin only for a deliberate change)", c.keys, got, c.allocs)
		}
	}
}

func benchmarkLines(b *testing.B) [][]byte {
	var lines [][]byte
	for _, l := range writtenLines(b, fuzzRecords()) {
		lines = append(lines, []byte(l))
	}
	return lines
}

func BenchmarkDecodeRecord_FastPath(b *testing.B) {
	lines := benchmarkLines(b)
	d := newLineDecoder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			if !d.decode(l, new(SiteRecord)) {
				b.Fatal("fast path declined a written record")
			}
		}
	}
}

func BenchmarkDecodeRecord_StdJSON(b *testing.B) {
	lines := benchmarkLines(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			if err := json.Unmarshal(l, new(SiteRecord)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
