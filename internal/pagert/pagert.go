// Package pagert is the page script runtime: the component that plays the
// role of the JS engine for the header scripts our synthetic publishers
// embed. It recognizes known HB library script tags, extracts the page's
// inline wrapper configuration, and drives the matching protocol flow —
// client-side prebid, hosted server-side HB, or the hybrid combination.
// The runtime is what makes a generated HTML page "behave"; the detector
// only ever observes the resulting events and requests, never this code.
package pagert

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"headerbid/internal/browser"
	"headerbid/internal/gptlib"
	"headerbid/internal/htmlmeta"
	"headerbid/internal/overlay"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
	"headerbid/internal/pubfood"
	"headerbid/internal/usersync"
)

// seedFromSite derives a stable per-site seed for side-channel activity.
func seedFromSite(site string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range site {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

// ConfigMarker is the inline-script variable that carries the page's
// wrapper configuration, the way real publishers inline their prebid
// setup next to the library include.
const ConfigMarker = "__hbConfig"

// PageConfig is the publisher's wrapper configuration as embedded in the
// page. Field names follow the inline-JSON wire format.
type PageConfig struct {
	Site          string          `json:"site"`
	Facet         string          `json:"facet"`             // "client" | "server" | "hybrid" | "" (no HB)
	Library       string          `json:"library,omitempty"` // "prebid" (default) | "pubfood"
	TimeoutMS     int             `json:"timeoutMs"`
	BadWrapper    bool            `json:"badWrapper,omitempty"`
	SendAllBids   bool            `json:"sendAllBids,omitempty"`
	AdServerURL   string          `json:"adServer"`
	ServerPartner string          `json:"serverPartner,omitempty"`
	FloorCPM      float64         `json:"floorCpm,omitempty"`
	AdUnits       []prebid.AdUnit `json:"adUnits"`
}

// InlineScript renders the config as the inline <script> body sitegen
// embeds in generated pages.
func (c *PageConfig) InlineScript() (string, error) {
	blob, err := json.Marshal(c) //hbvet:allow hotalloc config render runs at world-generation time, once per site, not per visit
	if err != nil {
		return "", fmt.Errorf("pagert: encode config: %w", err) //hbvet:allow hotalloc cold error path: Marshal of these types cannot fail
	}
	return "var " + ConfigMarker + " = " + string(blob) + ";", nil
}

// configScript returns the text of the document's inline config script.
func configScript(doc *htmlmeta.Document) (string, bool) {
	for _, s := range doc.Scripts {
		if s.Src == "" && strings.Contains(s.Inline, ConfigMarker) {
			return s.Inline, true
		}
	}
	return "", false
}

// parseInlineConfig decodes a config script. On the crawl path it runs
// only for pages the world did not render itself: the world seeds its
// ConfigMemo with every config it writes into a page.
func parseInlineConfig(inline string) (*PageConfig, error) {
	start := strings.IndexByte(inline, '{')
	end := strings.LastIndexByte(inline, '}')
	if start < 0 || end <= start {
		return nil, fmt.Errorf("pagert: malformed inline config") //hbvet:allow hotalloc cold error path: the world renders well-formed configs and seeds their decodes
	}
	var cfg PageConfig
	//hbvet:allow hotalloc decode of foreign pages only (memo-less runtimes, tests): a crawled world seeds its ConfigMemo with the configs it renders
	if err := json.Unmarshal([]byte(inline[start:end+1]), &cfg); err != nil {
		return nil, fmt.Errorf("pagert: parse inline config: %w", err) //hbvet:allow hotalloc cold error path: foreign pages only, like the decode above
	}
	for i := range cfg.AdUnits {
		if err := cfg.AdUnits[i].NormalizeSizes(); err != nil {
			return nil, err
		}
	}
	return &cfg, nil
}

// ConfigMemo memoizes Extract's decode by inline-script text for one world:
// a crawl re-visits each generated page every crawl day, and a sweep
// crawls the same pages once per variant, so decoding the same config
// JSON on every visit was a measurable slice of crawl CPU. The world
// that renders a page seeds the memo with the config it encoded (Seed),
// so even a page's first visit decodes nothing; Extract decodes only
// text nobody seeded. It is safe for concurrent use, has no bound and
// is never cleared: it lives as long as the world that owns it
// (sitegen.World.Configs). Its keys are substrings of the world's own
// pages, so it retains nothing beyond one config per distinct inline
// config. A returned PageConfig is shared and must be treated as
// read-only (OverlayConfig copies before it writes). The zero value is
// ready to use; a nil *ConfigMemo decodes every call.
type ConfigMemo struct {
	m sync.Map // inline-script text -> *memoConfig
}

// memoConfig is one inline script's decode outcome.
type memoConfig struct {
	cfg *PageConfig
	err error
}

// Seed records cfg as the outcome of decoding inline, the config script
// a renderer wrote with cfg.InlineScript, so the page's first visit
// reads the value the renderer already holds instead of decoding the
// renderer's own output. cfg must deep-equal what Extract decodes
// from inline (sizes normalized) and is shared read-only from here on.
// Text that already has an outcome keeps it.
func (m *ConfigMemo) Seed(inline string, cfg *PageConfig) {
	m.m.LoadOrStore(inline, &memoConfig{cfg: cfg})
}

// Extract finds and parses the inline configuration in a document,
// memoized on the config script's text. It returns (nil, nil) when the
// page carries no HB config.
func (m *ConfigMemo) Extract(doc *htmlmeta.Document) (*PageConfig, error) {
	inline, ok := configScript(doc)
	if !ok {
		return nil, nil
	}
	if m == nil {
		return parseInlineConfig(inline)
	}
	if v, ok := m.m.Load(inline); ok {
		e := v.(*memoConfig)
		return e.cfg, e.err
	}
	cfg, err := parseInlineConfig(inline)
	// A concurrent first visit may have stored the same script; every
	// caller then shares whichever outcome landed first.
	v, _ := m.m.LoadOrStore(inline, &memoConfig{cfg: cfg, err: err})
	e := v.(*memoConfig)
	return e.cfg, e.err
}

// OverlayConfig returns cfg with the overlay's wrapper interventions
// (TimeoutMS, FixBadWrappers, MaxPartners) applied. The returned config
// is a private copy whenever one of them is set — memoized PageConfigs
// are shared across visits and must never be written through — and cfg
// itself otherwise: a nil overlay, or one that only faults, reshapes the
// network or suppresses syncs, never touches the config. Ad-unit slices
// are cloned only when the partner pool is actually trimmed.
func OverlayConfig(cfg *PageConfig, ov *overlay.Overlay) *PageConfig {
	if ov == nil || (ov.TimeoutMS <= 0 && !ov.FixBadWrappers && ov.MaxPartners <= 0) {
		return cfg
	}
	out := *cfg
	if ov.TimeoutMS > 0 {
		out.TimeoutMS = ov.TimeoutMS
	}
	if ov.FixBadWrappers {
		out.BadWrapper = false
	}
	if ov.MaxPartners > 0 {
		out.AdUnits = capPartners(cfg.AdUnits, ov.MaxPartners)
	}
	return &out
}

// capPartners keeps the first max distinct bidders (in first-appearance
// order across the units, which is deterministic page config order) and
// filters every unit's bidder list down to the survivors. Units are
// returned unchanged — same backing array — when nothing is dropped.
func capPartners(units []prebid.AdUnit, max int) []prebid.AdUnit {
	keep := make(map[string]bool, max)
	dropped := false
	for _, u := range units {
		for _, b := range u.Bidders {
			if keep[b] {
				continue
			}
			if len(keep) < max {
				keep[b] = true
			} else {
				dropped = true
			}
		}
	}
	if !dropped {
		return units
	}
	out := make([]prebid.AdUnit, len(units))
	for i, u := range units {
		nu := u
		bs := make([]string, 0, len(u.Bidders))
		for _, b := range u.Bidders {
			if keep[b] {
				bs = append(bs, b)
			}
		}
		nu.Bidders = bs
		out[i] = nu
	}
	return out
}

// Runtime implements browser.ScriptRuntime over the partner registry.
// It drives one page at a time: the wrappers and the sync layer it runs
// on a page are reused on the next one, so a page's callbacks must no
// longer fire when the runtime's next RunScripts starts (the crawler
// resets its scheduler before every visit; a closed page drops them).
type Runtime struct {
	Registry *partners.Registry
	// Configs memoizes the pages' inline-config decodes; the crawler sets
	// the world's memo. Nil decodes every page's config afresh.
	Configs *ConfigMemo
	// Overlay, when non-nil, applies a scenario intervention to every
	// page this runtime drives: the parsed wrapper config is transformed
	// on a private copy at visit time (the memoized PageConfig is shared
	// across visits and stays untouched), and cookie-sync fan-out can be
	// suppressed. A nil or zero overlay changes nothing.
	Overlay *overlay.Overlay

	// Protocol state reused page after page, rebound by RunScripts.
	prebid     prebid.Wrapper
	server     gptlib.ServerSideClient
	syncer     usersync.Syncer
	slugs      []string
	slots      []gptlib.Slot
	settle     func()
	prebidDone func(*prebid.Result)
	serverDone func(*gptlib.ServerSideResult)
}

// New creates a runtime.
func New(reg *partners.Registry) *Runtime { return &Runtime{Registry: reg} }

// RunScripts drives the page's HB behaviour:
//
//   - no known HB library or no config  -> nothing happens (non-HB page);
//   - facet "client"                    -> prebid wrapper, publisher ad server;
//   - facet "hybrid"                    -> prebid wrapper, DFP-style ad server
//     that adds its own server-side demand;
//   - facet "server"                    -> single hosted-auction request.
//
// The client/hybrid distinction lives in the ad-server behaviour (and in
// what the detector can see), not in the wrapper code, mirroring reality.
func (rt *Runtime) RunScripts(p *browser.Page, doc *htmlmeta.Document, settle func()) {
	hasLib := false
	for _, s := range doc.Scripts {
		if s.Src != "" && browser.IsKnownHBLibrary(s.Src) {
			hasLib = true
			break
		}
	}
	cfg, err := rt.Configs.Extract(doc)
	if err != nil || !hasLib || cfg == nil || cfg.Facet == "" {
		// Page without executable HB — including the static-analysis trap
		// pages that merely *name* an HB library without config, and
		// pages whose config does not decode.
		settle()
		return
	}
	cfg = OverlayConfig(cfg, rt.Overlay)
	rt.settle = settle
	if rt.prebidDone == nil {
		rt.prebidDone = func(*prebid.Result) { rt.settle() }
		rt.serverDone = func(*gptlib.ServerSideResult) { rt.settle() }
	}

	// User tracking rides along with the HB library load (protocol Step 1):
	// cookie-sync pixels fan out to the page's demand partners. They run
	// concurrently with the auction and do not gate settle().
	slugs := rt.slugs[:0]
	for _, u := range cfg.AdUnits {
		for _, b := range u.Bidders {
			if !slices.Contains(slugs, b) {
				slugs = append(slugs, b)
			}
		}
	}
	if cfg.ServerPartner != "" {
		slugs = append(slugs, cfg.ServerPartner)
	}
	rt.slugs = slugs
	if len(slugs) > 0 && !(rt.Overlay != nil && rt.Overlay.DisableSync) {
		rt.syncer.Reset(p, rt.Registry, usersync.DefaultConfig(cfg.Site, slugs), seedFromSite(cfg.Site))
		rt.syncer.Run(nil)
	}

	switch cfg.Facet {
	case "client", "hybrid":
		if cfg.Library == "pubfood" {
			var slots []pubfood.Slot
			for _, u := range cfg.AdUnits {
				slots = append(slots, pubfood.Slot{
					Name: u.Code, Size: u.PrimarySize(), Elem: u.Code,
				})
			}
			var providers []pubfood.BidProvider
			seen := map[string]bool{}
			for _, u := range cfg.AdUnits {
				for _, b := range u.Bidders {
					if !seen[b] {
						seen[b] = true
						providers = append(providers, pubfood.BidProvider{Name: b})
					}
				}
			}
			lib := pubfood.New(p, p.Bus, rt.Registry, pubfood.Config{
				Site:        cfg.Site,
				Slots:       slots,
				Providers:   providers,
				TimeoutMS:   cfg.TimeoutMS,
				AdServerURL: cfg.AdServerURL,
				FloorCPM:    cfg.FloorCPM,
			})
			lib.Start(func(*pubfood.Result) { settle() })
			return
		}
		rt.prebid.Reset(p, p.Bus, rt.Registry, prebid.Config{
			Site:        cfg.Site,
			Page:        p.URL,
			AdUnits:     cfg.AdUnits,
			TimeoutMS:   cfg.TimeoutMS,
			SendAllBids: cfg.SendAllBids,
			BadWrapper:  cfg.BadWrapper,
			AdServerURL: cfg.AdServerURL,
			FloorCPM:    cfg.FloorCPM,
		})
		rt.prebid.RequestBids(rt.prebidDone)
	case "server":
		rt.slots = gptlib.AppendSlots(rt.slots[:0], cfg.AdUnits)
		rt.server.Reset(p, p.Bus, rt.Registry, gptlib.ServerSideConfig{
			Site:     cfg.Site,
			Provider: cfg.ServerPartner,
			Slots:    rt.slots,
		})
		rt.server.Run(rt.serverDone)
	default:
		settle()
	}
}
