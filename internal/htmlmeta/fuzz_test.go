package htmlmeta

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse checks the scanner on arbitrary markup: it never panics,
// every string it stores is a substring of the input, all-ASCII input
// parses exactly as the reference scanner (reference_test.go) parses
// it, and ParseInto on a Document left over from another page gives
// what a fresh Parse gives. The committed corpus under
// testdata/fuzz/FuzzParse holds a generated page of each facet and
// library, a trap page, samplePage, the malformed cases of
// TestParseMalformedNeverPanics and the non-ASCII cases of
// TestParseNonASCII; it replays on every 'go test'.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		texts := []string{doc.Title}
		for _, s := range doc.Scripts {
			texts = append(texts, s.Src, s.Inline)
		}
		for _, text := range texts {
			if !strings.Contains(src, text) {
				t.Fatalf("Parse(%q) stored %q, which is not in the input", src, text)
			}
		}
		if isASCII(src) {
			if want := refParse(src); !reflect.DeepEqual(doc, want) {
				t.Fatalf("Parse(%q) = %+v, reference %+v", src, *doc, *want)
			}
		}
		leftover := Parse(samplePage)
		ParseInto(leftover, src)
		if !sameDocument(leftover, doc) {
			t.Fatalf("ParseInto(used, %q) = %+v, Parse %+v", src, *leftover, *doc)
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// sameDocument is reflect.DeepEqual with nil and empty Scripts equal.
func sameDocument(a, b *Document) bool {
	if a.Title != b.Title || len(a.Scripts) != len(b.Scripts) {
		return false
	}
	for i := range a.Scripts {
		if a.Scripts[i] != b.Scripts[i] {
			return false
		}
	}
	return true
}
