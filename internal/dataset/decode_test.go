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
