package pagert

import (
	"strings"
	"testing"

	"headerbid/internal/htmlmeta"
	"headerbid/internal/prebid"
)

// decode extracts a page's config without a memo: a nil *ConfigMemo
// decodes every call.
func decode(doc *htmlmeta.Document) (*PageConfig, error) {
	var m *ConfigMemo
	return m.Extract(doc)
}

func TestInlineScriptRoundTrip(t *testing.T) {
	cfg := &PageConfig{
		Site:        "pub.example",
		Facet:       "client",
		TimeoutMS:   2500,
		AdServerURL: "https://adserver.pub.example/serve",
		FloorCPM:    0.02,
		AdUnits: []prebid.AdUnit{
			{Code: "u1", SizeStr: []string{"300x250"}, Bidders: []string{"appnexus"}},
		},
	}
	inline, err := cfg.InlineScript()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(inline, "var "+ConfigMarker) {
		t.Fatalf("inline = %q", inline)
	}
	doc := htmlmeta.Parse("<head><script>" + inline + "</script></head>")
	back, err := decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || back.Site != cfg.Site || back.Facet != cfg.Facet || back.TimeoutMS != 2500 {
		t.Fatalf("round trip = %+v", back)
	}
	if len(back.AdUnits) != 1 || len(back.AdUnits[0].Sizes) != 1 {
		t.Fatalf("ad units not normalized: %+v", back.AdUnits)
	}
}

func TestExtractConfigAbsent(t *testing.T) {
	doc := htmlmeta.Parse("<head><script>var other = 1;</script></head>")
	cfg, err := decode(doc)
	if err != nil || cfg != nil {
		t.Fatalf("cfg=%v err=%v, want nil,nil", cfg, err)
	}
}

func TestExtractConfigMalformed(t *testing.T) {
	doc := htmlmeta.Parse("<head><script>var " + ConfigMarker + " = {broken;</script></head>")
	if _, err := decode(doc); err == nil {
		t.Fatal("malformed config accepted")
	}
	doc2 := htmlmeta.Parse("<head><script>var " + ConfigMarker + " = notjson;</script></head>")
	if _, err := decode(doc2); err == nil {
		t.Fatal("config without braces accepted")
	}
}

func TestExtractConfigBadSizes(t *testing.T) {
	doc := htmlmeta.Parse(`<head><script>var ` + ConfigMarker +
		` = {"site":"x","facet":"client","adUnits":[{"code":"u","sizes":["banana"]}]};</script></head>`)
	if _, err := decode(doc); err == nil {
		t.Fatal("invalid slot size accepted")
	}
}
