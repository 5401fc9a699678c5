package sitegen

import (
	"strconv"
	"strings"

	"headerbid/internal/hb"
	"headerbid/internal/pagert"
	"headerbid/internal/prebid"
	"headerbid/internal/rng"
)

// Library CDN URLs embedded by generated pages. The detector and the
// static analyzer both key on these.
const (
	PrebidCDN  = "https://cdn.prebid.example/prebid.js"
	GPTCDN     = "https://www.googletagservices.com/tag/js/gpt.js"
	PubfoodCDN = "https://cdn.pubfood.example/pubfood.js"
	JQueryCDN  = "https://cdn.static.example/jquery.min.js"
)

// PageHTML returns a site's homepage, rendered once per site and cached:
// the markup is a pure function of (world seed, site), and the document
// handler used to rebuild it — inline-config JSON marshal included — on
// every visit of every crawl day.
func (w *World) PageHTML(s *Site) string {
	s.htmlOnce.Do(func() { s.html = w.renderPageHTML(s) })
	return s.html
}

// Markup of generated pages, in document order. renderPageHTML writes
// them into one builder sized from their lengths.
const (
	pageOpen    = "<!DOCTYPE html>\n<html>\n<head>\n<title>"
	pageScripts = "</title>\n" +
		`<script src="` + JQueryCDN + `"></script>` + "\n" +
		`<script src="https://analytics.static.example/ga.js" async></script>` + "\n"
	prebidTag  = `<script src="` + PrebidCDN + `" async></script>` + "\n"
	pubfoodTag = `<script src="` + PubfoodCDN + `" async></script>` + "\n"
	gptTag     = `<script src="` + GPTCDN + `" async></script>` + "\n"
	inlineOpen = "<script>"
	inlineEnd  = "</script>\n"
	// trapTag names an HB library inside a commented-out block a naive
	// regex still matches; it is never executed.
	trapTag   = "<!-- legacy, disabled:\n<script src=\"" + PrebidCDN + "\"></script>\n-->\n"
	bodyOpen  = "</head>\n<body>\n<h1>"
	bodyTitle = "</h1>\n"
	slotOpen  = "<div id="
	slotMid   = ` class="ad" data-size=`
	slotEnd   = "></div>\n"
	pageClose = "<p>Lorem ipsum editorial content.</p>\n</body>\n</html>\n"
)

// renderPageHTML renders a site's homepage: head scripts (analytics
// noise, HB library includes, inline wrapper config) plus body slot divs.
// Non-HB pages get ordinary scripts only; a small fraction get "trap"
// markup that names an HB library without executing one — the
// static-analysis false positives the paper warns about (§3.1).
func (w *World) renderPageHTML(s *Site) string {
	var libs, inline, trap string
	var cfg *pagert.PageConfig
	if s.HB {
		cfg, inline = w.inlineConfig(s)
		switch s.Facet {
		case hb.FacetClient:
			libs = prebidTag
			if s.Library == "pubfood" {
				libs = pubfoodTag
			}
		case hb.FacetHybrid:
			libs = prebidTag + gptTag
		case hb.FacetServer:
			libs = gptTag
		}
	} else if trapDrawn(w.Cfg.Seed, s.Domain) {
		trap = trapTag
	}

	size := len(pageOpen) + len(pageScripts) + len(bodyOpen) + len(bodyTitle) +
		len(pageClose) + 2*len(s.Domain) + len(libs) + len(trap)
	if s.HB {
		size += len(inlineOpen) + len(inline) + len(inlineEnd)
		for _, u := range s.AdUnits {
			// Both quoted values plus their four quotes.
			size += len(slotOpen) + len(slotMid) + len(slotEnd) +
				len(u.Code) + len(u.PrimarySize().String()) + 4
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(pageOpen)
	b.WriteString(s.Domain)
	b.WriteString(pageScripts)
	b.WriteString(libs)
	inlineAt := 0
	if s.HB {
		b.WriteString(inlineOpen)
		inlineAt = b.Len()
		b.WriteString(inline)
		b.WriteString(inlineEnd)
	}
	b.WriteString(trap)
	b.WriteString(bodyOpen)
	b.WriteString(s.Domain)
	b.WriteString(bodyTitle)
	if s.HB {
		var q [64]byte
		for _, u := range s.AdUnits {
			// strconv.Quote renders %q byte-identically for these
			// ASCII codes/sizes (pinned by TestPageHTMLQuotingPinnedToFmt).
			b.WriteString(slotOpen)
			b.Write(strconv.AppendQuote(q[:0], u.Code))
			b.WriteString(slotMid)
			b.Write(strconv.AppendQuote(q[:0], u.PrimarySize().String()))
			b.WriteString(slotEnd)
		}
	}
	b.WriteString(pageClose)
	page := b.String()
	if cfg != nil {
		// The memo key is the page's own copy of the script text, so the
		// memo retains nothing the cached page does not.
		w.Configs.Seed(page[inlineAt:inlineAt+len(inline)], cfg)
	}
	return page
}

// trapStream is the hashed prefix of a page's trap stream name,
// "html/<domain>".
var trapStream = rng.NameOf("html/")

// trapDrawn draws whether a non-HB page carries trap markup, from the
// stream rng.SplitStable(seed, "html/"+domain) starts: a stream on the
// stack, as the draw runs on every non-HB page's first visit.
func trapDrawn(seed int64, domain string) bool {
	var r rng.Stream
	r.ReseedStable(seed, trapStream.Append(domain))
	return r.Bool(0.015)
}

// inlineConfig renders an HB site's inline wrapper config script body and
// returns the config it encodes, which renderPageHTML seeds into
// World.Configs: the measurement side then never decodes JSON this world
// wrote. The config is nil when rendering failed.
func (w *World) inlineConfig(s *Site) (*pagert.PageConfig, string) {
	cfg := w.pageConfig(s)
	inline, err := cfg.InlineScript()
	if err != nil {
		return nil, "/* config error: " + err.Error() + " */"
	}
	return cfg, inline
}

// pageConfig builds the inline wrapper configuration for an HB site. Its
// ad units share their Sizes and Bidders arrays with the site's, which
// nothing writes after generation.
func (w *World) pageConfig(s *Site) *pagert.PageConfig {
	units := make([]prebid.AdUnit, len(s.AdUnits))
	copy(units, s.AdUnits)
	for i := range units {
		units[i].SizeStr = nil
		for _, sz := range units[i].Sizes {
			units[i].SizeStr = append(units[i].SizeStr, sz.String())
		}
	}
	return &pagert.PageConfig{
		Site:          s.Domain,
		Facet:         s.Facet.Short(),
		Library:       s.Library,
		TimeoutMS:     s.TimeoutMS,
		BadWrapper:    s.BadWrapper,
		SendAllBids:   s.SendAllBids,
		AdServerURL:   s.AdServerURL(),
		ServerPartner: s.ServerPartner,
		FloorCPM:      s.FloorCPM,
		AdUnits:       units,
	}
}
