package htmlmeta

import (
	"reflect"
	"strings"
	"testing"
)

const samplePage = `<!DOCTYPE html>
<html>
<head>
<title>My Site</title>
<script src="https://cdn.prebid.example/prebid.js" async></script>
<script>var __hbConfig = {"site":"x"};</script>
<script src="/local.js" defer></script>
</head>
<body>
<script src="https://late.example/body.js"></script>
<p>text</p>
</body>
</html>`

func TestParseScripts(t *testing.T) {
	doc := Parse(samplePage)
	if doc.Title != "My Site" {
		t.Fatalf("title = %q", doc.Title)
	}
	if len(doc.Scripts) != 4 {
		t.Fatalf("scripts = %d, want 4", len(doc.Scripts))
	}
	s0 := doc.Scripts[0]
	if s0.Src != "https://cdn.prebid.example/prebid.js" || !s0.InHead || !s0.Async {
		t.Fatalf("script0 = %+v", s0)
	}
	s1 := doc.Scripts[1]
	if s1.Src != "" || !strings.Contains(s1.Inline, "__hbConfig") || !s1.InHead {
		t.Fatalf("script1 = %+v", s1)
	}
	s2 := doc.Scripts[2]
	if !s2.Defer || s2.Async {
		t.Fatalf("script2 flags = %+v", s2)
	}
	s3 := doc.Scripts[3]
	if s3.InHead {
		t.Fatal("body script marked InHead")
	}
}

func TestParseAttributeQuoting(t *testing.T) {
	cases := []struct{ in, want string }{
		{`<script src="https://a.example/x.js"></script>`, "https://a.example/x.js"},
		{`<script src='https://b.example/y.js'></script>`, "https://b.example/y.js"},
		{`<script src=https://c.example/z.js></script>`, "https://c.example/z.js"},
		{`<script SRC="https://d.example/up.js"></script>`, "https://d.example/up.js"},
		{`<script data-src="nope" src="https://e.example/real.js"></script>`, "https://e.example/real.js"},
	}
	for _, c := range cases {
		doc := Parse(c.in)
		if len(doc.Scripts) != 1 || doc.Scripts[0].Src != c.want {
			t.Errorf("Parse(%q) scripts = %+v, want src %q", c.in, doc.Scripts, c.want)
		}
	}
}

func TestParseMalformedNeverPanics(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<script",
		"<script src=",
		`<script src="unterminated`,
		"<script></script",
		"<head><script>no close",
		strings.Repeat("<script>", 100),
		"<title>no close",
		"plain text only",
	}
	for _, c := range cases {
		_ = Parse(c) // must not panic
	}
}

func TestParseUnclosedScriptCapturesTail(t *testing.T) {
	doc := Parse(`<script>var x = 1;`)
	if len(doc.Scripts) != 1 || doc.Scripts[0].Inline != "var x = 1;" {
		t.Fatalf("scripts = %+v", doc.Scripts)
	}
}

func TestParseScriptVsScripted(t *testing.T) {
	// "<scripted>" must not be treated as a script tag.
	doc := Parse(`<scripted src="x.js"></scripted>`)
	if len(doc.Scripts) != 0 {
		t.Fatalf("matched a non-script tag: %+v", doc.Scripts)
	}
}

func TestHeadBoundary(t *testing.T) {
	doc := Parse(`<head><script src="a.js"></script></head><script src="b.js"></script>`)
	if !doc.Scripts[0].InHead || doc.Scripts[1].InHead {
		t.Fatalf("head boundary wrong: %+v", doc.Scripts)
	}
	// <body> implicitly ends head even without </head>.
	doc2 := Parse(`<head><body><script src="c.js"></script>`)
	if doc2.Scripts[0].InHead {
		t.Fatal("script after <body> still InHead")
	}
}

func TestInlineBodyTrimmed(t *testing.T) {
	doc := Parse("<script>\n  var a = 1;  \n</script>")
	if doc.Scripts[0].Inline != "var a = 1;" {
		t.Fatalf("inline = %q", doc.Scripts[0].Inline)
	}
}

func TestCommentedScriptStillVisibleToScanner(t *testing.T) {
	// The tokenizer does not interpret comments — by design, because the
	// static detector wants to compare strict vs naive matching. A
	// commented-out script element is still found as a Script.
	src := "<!--\n<script src=\"https://cdn.prebid.example/prebid.js\"></script>\n-->"
	doc := Parse(src)
	if len(doc.Scripts) != 1 {
		t.Fatalf("scripts in comments = %d; the naive scanner should see them", len(doc.Scripts))
	}
}

func TestAttrValueEdge(t *testing.T) {
	if got := attrValue(` src = "spaced.js" `, "src"); got != "spaced.js" {
		t.Fatalf("spaced attr = %q", got)
	}
	if got := attrValue(`nosrc="x"`, "src"); got != "" {
		t.Fatalf("suffix-name attr matched: %q", got)
	}
	if got := attrValue(``, "src"); got != "" {
		t.Fatalf("empty attrs: %q", got)
	}
}

func TestHasAttrEdge(t *testing.T) {
	if !hasAttr(" async ", "async") {
		t.Fatal("bare attr not found")
	}
	if hasAttr(` data-async="1" `, "async") {
		t.Fatal("prefixed attr matched")
	}
	if hasAttr(` async="false" `, "async") {
		// async="false" is treated as valued, not bare; our model only
		// reports bare flags.
		t.Fatal("valued attr treated as bare")
	}
}

// Bytes outside ASCII never shift what the scanner reads. The scanner it
// replaced found offsets in a lower-cased copy of the page and sliced
// the original with them; lowering can change the byte length (invalid
// UTF-8 becomes the 3-byte U+FFFD, and 'İ' lowers to 3 bytes), so on
// these inputs it panicked or returned the wrong text.
func TestParseNonASCII(t *testing.T) {
	cases := []struct {
		name, in string
		want     Document
	}{
		{"invalid UTF-8 before an unclosed script", "\xff\xff\xff\xff\xff\xff<script>",
			Document{Scripts: []Script{{}}}},
		{"invalid UTF-8 before a src script", "\xff\xff\xff\xff<script src=a>x</script>",
			Document{Scripts: []Script{{Src: "a"}}}},
		{"invalid UTF-8 title", "<title>\xff\xff</title><script>var x</script>",
			Document{Title: "\xff\xff", Scripts: []Script{{Inline: "var x"}}}},
		{"title whose lower case is longer", `<title>İstanbul</title><SCRIPT SRC="https://cdn.prebid.example/prebid.js" ASYNC></SCRIPT>`,
			Document{Title: "İstanbul", Scripts: []Script{{Src: "https://cdn.prebid.example/prebid.js", Async: true}}}},
		{"attribute text whose lower case is longer", `<head><script data-city="İİİİ" src="b.js" defer></script>`,
			Document{Scripts: []Script{{Src: "b.js", InHead: true, Defer: true}}}},
	}
	for _, c := range cases {
		if got := Parse(c.in); !reflect.DeepEqual(*got, c.want) {
			t.Errorf("%s: Parse(%q) = %+v, want %+v", c.name, c.in, *got, c.want)
		}
	}
}

// ParseInto overwrites a used Document completely and, once its script
// storage is large enough, allocates nothing.
func TestParseIntoReusesDocument(t *testing.T) {
	var doc Document
	ParseInto(&doc, samplePage)
	ParseInto(&doc, `<script src="only.js"></script>`)
	if want := Parse(`<script src="only.js"></script>`); !reflect.DeepEqual(&doc, want) {
		t.Fatalf("reused document = %+v, want %+v", doc, *want)
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseInto(&doc, samplePage) }); allocs != 0 {
		t.Fatalf("ParseInto into a warm document allocated %.0f times", allocs)
	}
}
