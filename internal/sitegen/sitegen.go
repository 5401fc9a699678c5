// Package sitegen generates the synthetic web the crawler measures: a
// ranked list of publisher sites whose HB deployments — adoption by rank,
// facet mix, demand-partner selections, ad-slot counts and sizes, wrapper
// timeouts and misconfigurations — are calibrated to the distributions the
// paper reports. It also builds the server side of the world: bid
// endpoints for all 84 partners, per-publisher ad servers, hosted-auction
// providers, creative and CDN hosts, installable on the simulated network
// (and, via package livenet, on real HTTP listeners).
//
// The generator is the repo's substitute for the live top-35k Alexa crawl;
// every constant here is a documented calibration target, not a hidden
// fudge (see DESIGN.md §2).
package sitegen

import (
	"sort"
	"strconv"
	"sync"

	"headerbid/internal/adserver"
	"headerbid/internal/hb"
	"headerbid/internal/pagert"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
	"headerbid/internal/rng"
	"headerbid/internal/rtb"
)

// Config tunes world generation. The zero value is invalid; use
// DefaultConfig and override.
type Config struct {
	Seed     int64
	NumSites int

	// Adoption probabilities by rank band (paper §3.2: "20-23% of the top
	// 5k websites, 12-17% for the top 5k-15k, and 10-12% for the rest").
	AdoptTop5k [2]float64
	AdoptMid   [2]float64
	AdoptTail  [2]float64
	// Facet shares (paper §4.6: server 48%, hybrid 34.7%, client 17.3%).
	ShareServer float64
	ShareHybrid float64
	ShareClient float64

	// DFPServerShare is the probability a server-side site uses DFP as its
	// hosted provider (drives DFP's ~80% overall presence and its 48%
	// single-partner share in Figure 10).
	DFPServerShare float64

	// BadWrapperProb is the share of client/hybrid publishers whose
	// wrapper contacts the ad server without waiting for bids.
	BadWrapperProb float64
	// RenderFailProb is the per-slot probability of a creative failing to
	// render (adRenderFailed).
	RenderFailProb float64
	// MultiDeviceProb is the share of publishers that request bids for
	// per-device duplicates of their slots — the ">20 auctioned slots"
	// oddity the paper investigates (§5.3).
	MultiDeviceProb float64
}

// DefaultConfig returns the calibration used for the headline experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		NumSites:        35000,
		AdoptTop5k:      [2]float64{0.20, 0.23},
		AdoptMid:        [2]float64{0.12, 0.17},
		AdoptTail:       [2]float64{0.10, 0.12},
		ShareServer:     0.48,
		ShareHybrid:     0.347,
		ShareClient:     0.173,
		DFPServerShare:  0.90,
		BadWrapperProb:  0.06,
		RenderFailProb:  0.02,
		MultiDeviceProb: 0.05,
	}
}

// Site is one generated publisher.
type Site struct {
	Rank   int    // 1-based Alexa-style rank
	Domain string // e.g. "site00042.example"

	HB    bool
	Facet hb.Facet

	// Partners lists the demand-partner slugs reachable from the page via
	// web requests: the hosted provider for server-side sites, DFP plus
	// bidders for hybrid, bidders only for client-side.
	Partners []string
	// ServerPartner is the hosted provider for FacetServer sites.
	ServerPartner string

	// pageURL caches the canonical page URL (the crawler and the
	// detector ask for it on every visit).
	pageURL string

	AdUnits []prebid.AdUnit
	// Library names the client-side wrapper: "prebid" (the ~64% majority
	// per the paper) or "pubfood"; server-facet sites use neither.
	Library    string
	TimeoutMS  int
	BadWrapper bool
	// SendAllBids mirrors prebid's enableSendAllBids, used by ~half of
	// client-side deployments.
	SendAllBids bool
	FloorCPM    float64

	// InfraQuality in (0,1]; higher-ranked publishers run better
	// infrastructure (paper Fig 13: top-500 sites are measurably faster).
	InfraQuality float64
	// RenderFailProb per slot.
	RenderFailProb float64

	// html caches the rendered homepage (see World.PageHTML); it is a
	// pure function of the site, and crawls re-visit sites daily.
	htmlOnce sync.Once
	html     string

	// books memoizes the site's ad-server line-item books (see
	// World.adServerBook): [0] its own ad server, [1] its DFP network's.
	bookOnce [2]sync.Once
	book     [2]*adserver.Book
}

// PageURL returns the canonical page URL the crawler visits.
func (s *Site) PageURL() string {
	if s.pageURL == "" {
		// Zero-value Sites (hand-built in tests) compute on demand.
		return "https://www." + s.Domain + "/"
	}
	return s.pageURL
}

// AdServerURL returns the ad-server endpoint the wrapper targets.
func (s *Site) AdServerURL() string {
	switch s.Facet {
	case hb.FacetHybrid:
		return "https://securepubads.doubleclick.net/gampad/ads"
	default:
		return "https://adserver." + s.Domain + "/serve"
	}
}

// World is the generated ecosystem.
type World struct {
	Cfg Config
	// Shard records which slice of the seed-addressed population this
	// world holds ({0, 1} for a full world; see GenerateShard).
	Shard    Shard
	Sites    []*Site
	Registry *partners.Registry

	byDomain map[string]*Site

	// shared is the precomputed host→target dispatch table every visit
	// binds its ecosystem to (see sharedTargets in handlers.go).
	sharedOnce sync.Once
	shared     map[string]sharedTarget

	// exchanges caches each partner's internal RTB exchange. An exchange
	// is a pure function of (world seed, partner profile) and is
	// stateless at run time (all randomness flows through the caller's
	// stream), so one instance serves every visit; rebuilding it per
	// (visit, partner) was a top-10 crawl allocation.
	exchMu    sync.Mutex
	exchanges map[string]*rtb.Exchange

	// Configs memoizes the decode of each HB page's inline wrapper
	// config for this world's crawls (the crawler hands it to its page
	// runtimes). It lives exactly as long as the world.
	Configs pagert.ConfigMemo
}

// ExchangeFor returns the partner's internal RTB exchange, built once
// per world.
func (w *World) ExchangeFor(p *partners.Profile) *rtb.Exchange {
	w.exchMu.Lock()
	defer w.exchMu.Unlock()
	ex, ok := w.exchanges[p.Slug]
	if !ok {
		if w.exchanges == nil {
			w.exchanges = make(map[string]*rtb.Exchange, 16)
		}
		ex = rtb.NewExchange(p.Slug, p.DSPCount, p.PriceMedianUSD, p.PriceSigma, w.Cfg.Seed)
		w.exchanges[p.Slug] = ex
	}
	return ex
}

// adServerBook returns the line-item book of a site's ad server (dfp
// selects its DFP network's), built once per world: a server is seeded
// by the world seed and the domain alone, so every visit's server
// starts from the same book and stream state. A domain outside the
// world gets a fresh book on every call.
func (w *World) adServerBook(dfp bool, domain string) *adserver.Book {
	s, ok := w.byDomain[domain]
	if !ok {
		return newAdServerBook(w.Cfg.Seed, dfp, domain)
	}
	i := 0
	if dfp {
		i = 1
	}
	s.bookOnce[i].Do(func() { s.book[i] = newAdServerBook(w.Cfg.Seed, dfp, domain) })
	return s.book[i]
}

// newAdServerBook builds the book of the server named "adsrv/<domain>",
// or "adsrv/dfp/<domain>" for a DFP network.
func newAdServerBook(seed int64, dfp bool, domain string) *adserver.Book {
	name := "adsrv/" + domain
	if dfp {
		name = "adsrv/dfp/" + domain
	}
	return adserver.NewBook(adserver.DefaultConfig(rng.SplitStable(seed, name).Int63()))
}

// Generate builds a world deterministically from cfg — the unsharded
// case of GenerateShard.
func Generate(cfg Config) *World {
	return GenerateShard(cfg, Shard{Index: 0, Count: 1})
}

// SiteByDomain looks a site up by domain.
func (w *World) SiteByDomain(domain string) (*Site, bool) {
	s, ok := w.byDomain[domain]
	return s, ok
}

// HBSites returns the HB-enabled subset in rank order.
func (w *World) HBSites() []*Site {
	var out []*Site
	for _, s := range w.Sites {
		if s.HB {
			out = append(out, s)
		}
	}
	return out
}

// siteDomain renders "siteNNNNN.example" (zero-padded to five digits,
// byte-identical to the fmt.Sprintf("site%05d.example", rank) it
// replaces — pinned by TestSiteDomainPinnedToFmt). World generation
// mints one domain per site, and a sharded crawl has every process
// regenerate its slice of the population, so a formatted call per site
// would be paid once per site in every shard.
func siteDomain(rank int) string {
	digits := strconv.Itoa(rank)
	b := make([]byte, 0, len("site.example")+max(5, len(digits)))
	b = append(b, "site"...)
	for pad := 5 - len(digits); pad > 0; pad-- {
		b = append(b, '0')
	}
	b = append(b, digits...)
	b = append(b, ".example"...)
	return string(b)
}

// generateSite builds one site from its stable per-rank stream.
func generateSite(cfg Config, reg *partners.Registry, rank int) *Site {
	domain := siteDomain(rank)
	r := rng.SplitStable(cfg.Seed, "site/"+domain)

	s := &Site{
		Rank:           rank,
		Domain:         domain,
		pageURL:        "https://www." + domain + "/",
		InfraQuality:   infraQuality(r, rank, cfg.NumSites),
		RenderFailProb: cfg.RenderFailProb,
	}

	s.HB = r.Bool(adoptionProb(cfg, r, rank))
	if !s.HB {
		return s
	}

	s.Facet = sampleFacet(cfg, r)
	s.FloorCPM = 0.005 + 0.03*r.Float64()
	s.TimeoutMS = sampleTimeout(r)
	s.SendAllBids = r.Bool(0.5)

	// Top-ranked publishers curate their HB stack (Fig 13: the top 500
	// sites are measurably faster): they tune deadlines down, rarely
	// misconfigure wrappers, and avoid chronically slow partners.
	curated := rank <= 2000 && r.Bool(0.7)
	if curated && s.TimeoutMS > 2000 {
		s.TimeoutMS = []int{1000, 1500, 2000}[r.Intn(3)]
	}
	badWrapperProb := cfg.BadWrapperProb
	if curated {
		badWrapperProb *= 0.25
	}

	switch s.Facet {
	case hb.FacetServer:
		s.ServerPartner = sampleServerProvider(cfg, reg, r)
		s.Partners = []string{s.ServerPartner}
	case hb.FacetHybrid:
		bidders := sampleBidders(reg, r, hybridBidderCount(r), false, curated)
		s.Partners = append([]string{"dfp"}, bidders...)
		s.BadWrapper = r.Bool(badWrapperProb)
		s.Library = "prebid"
	case hb.FacetClient:
		n := clientBidderCount(r)
		bidders := sampleBidders(reg, r, n, n == 1, curated)
		s.Partners = bidders
		s.BadWrapper = r.Bool(badWrapperProb)
		// Client-side wrappers: prebid dominates; a minority run pubfood.
		if r.Bool(0.12) {
			s.Library = "pubfood"
			s.BadWrapper = false // pubfood has no bad-wrapper misconfiguration mode
		} else {
			s.Library = "prebid"
		}
	}

	s.AdUnits = generateAdUnits(cfg, r, s.Facet, bidderSubset(s))
	return s
}

// bidderSubset returns the slugs that receive client-side bid requests.
func bidderSubset(s *Site) []string {
	switch s.Facet {
	case hb.FacetServer:
		return nil
	case hb.FacetHybrid:
		return s.Partners[1:] // exclude DFP (it is the ad server, not a client bidder)
	default:
		return s.Partners
	}
}

// adoptionProb implements the rank-banded adoption rates.
func adoptionProb(cfg Config, r *rng.Stream, rank int) float64 {
	var band [2]float64
	switch {
	case rank <= 5000:
		band = cfg.AdoptTop5k
	case rank <= 15000:
		band = cfg.AdoptMid
	default:
		band = cfg.AdoptTail
	}
	return r.Uniform(band[0], band[1])
}

func sampleFacet(cfg Config, r *rng.Stream) hb.Facet {
	x := r.Float64() * (cfg.ShareServer + cfg.ShareHybrid + cfg.ShareClient)
	switch {
	case x < cfg.ShareServer:
		return hb.FacetServer
	case x < cfg.ShareServer+cfg.ShareHybrid:
		return hb.FacetHybrid
	default:
		return hb.FacetClient
	}
}

// sampleTimeout draws the wrapper deadline: most publishers keep the 3s
// default; tuners pick something shorter or (badly) much longer — the
// paper saw HB rounds needing 20 seconds to conclude.
func sampleTimeout(r *rng.Stream) int {
	switch r.Categorical([]float64{0.57, 0.08, 0.10, 0.09, 0.05, 0.06, 0.04, 0.01}) {
	case 0:
		return 3000
	case 1:
		return 1000
	case 2:
		return 1500
	case 3:
		return 2000
	case 4:
		return 2500
	case 5:
		return 5000
	case 6:
		return 8000
	default:
		return r.UniformInt(15000, 20000)
	}
}

// sampleServerProvider picks the hosted provider for a server-side site.
func sampleServerProvider(cfg Config, reg *partners.Registry, r *rng.Stream) string {
	if r.Bool(cfg.DFPServerShare) {
		return "dfp"
	}
	providers := reg.ServerSideProviders()
	var weights []float64
	var slugs []string
	for _, p := range providers {
		if p.Slug == "dfp" {
			continue
		}
		slugs = append(slugs, p.Slug)
		weights = append(weights, p.Weight)
	}
	if len(slugs) == 0 {
		return "dfp"
	}
	return slugs[r.Categorical(weights)]
}

// hybridBidderCount draws the number of client-side bidders on a hybrid
// site (site partner count is this plus one for DFP).
func hybridBidderCount(r *rng.Stream) int {
	// Calibrated so that, combined with server-side singletons, the
	// overall partners-per-site CDF matches Figure 9 (>50% one partner,
	// ~20% five or more, ~5% ten or more, max 20).
	weights := []float64{0.24, 0.17, 0.13, 0.11, 0.09, 0.07, 0.05, 0.04, 0.03}
	idx := r.Categorical(append(weights, 0.07)) // last bucket: 10..19
	if idx < len(weights) {
		return idx + 1
	}
	return r.UniformInt(10, 19)
}

// clientBidderCount draws the bidder count for a pure client-side site.
func clientBidderCount(r *rng.Stream) int {
	weights := []float64{0.25, 0.15, 0.12, 0.10, 0.09, 0.07, 0.06, 0.05, 0.04}
	idx := r.Categorical(append(weights, 0.07)) // 10..20
	if idx < len(weights) {
		return idx + 1
	}
	return r.UniformInt(10, 20)
}

// singlePartnerWeights bias the selection of lone client-side bidders
// toward the partners the paper finds standing alone (Figure 10: Criteo
// 2.37%, Yieldlab 1.68%, Amazon next).
var singlePartnerBias = map[string]float64{
	"criteo":   8,
	"yieldlab": 6,
	"amazon":   4,
}

// sampleBidders draws n distinct client-side bidders weighted by partner
// popularity; single==true applies the lone-bidder bias; curated==true
// penalizes slow and chronically late partners (top publishers vet their
// demand).
func sampleBidders(reg *partners.Registry, r *rng.Stream, n int, single, curated bool) []string {
	pool := reg.Bidders()
	var candidates []*partners.Profile
	for _, p := range pool {
		if p.Slug == "dfp" {
			continue
		}
		candidates = append(candidates, p)
	}
	weights := make([]float64, len(candidates))
	for i, p := range candidates {
		w := p.Weight
		if single {
			if b, ok := singlePartnerBias[p.Slug]; ok {
				w *= b
			}
		}
		if curated && (p.MedianMS > 600 || p.LateProb > 0.4) {
			w *= 0.2
		}
		weights[i] = w
	}
	idxs := r.WeightedSampleWithoutReplacement(weights, n)
	out := make([]string, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, candidates[i].Slug)
	}
	sort.Strings(out) // stable page config regardless of sample order
	return out
}

// generateAdUnits draws the site's ad slots: per-facet count distributions
// matching Figure 19 and size catalogs matching Figure 21, plus the
// multi-device duplication oddity.
func generateAdUnits(cfg Config, r *rng.Stream, facet hb.Facet, bidders []string) []prebid.AdUnit {
	n := slotCount(r, facet)
	multiDevice := r.Bool(cfg.MultiDeviceProb)

	units := make([]prebid.AdUnit, 0, n)
	for i := 0; i < n; i++ {
		size := sampleSlotSize(r, facet)
		u := prebid.AdUnit{
			Code:    "div-gpt-ad-" + strconv.Itoa(i+1),
			Sizes:   []hb.Size{size},
			Bidders: unitBidders(r, bidders),
		}
		units = append(units, u)
	}
	if multiDevice {
		// Duplicate every unit for 2-3 extra device classes: same sizes,
		// distinct codes — auctioning more slots than the page displays.
		devices := []string{"tablet", "mobile", "desktop-xl"}
		extra := r.UniformInt(2, 3)
		base := len(units)
		for d := 0; d < extra; d++ {
			for i := 0; i < base; i++ {
				u := units[i]
				u.Code = units[i].Code + "-" + devices[d]
				units = append(units, u)
			}
		}
	}
	return units
}

// unitBidders assigns bidders to one ad unit: most units take every
// configured bidder; some publishers split bidders across units.
func unitBidders(r *rng.Stream, bidders []string) []string {
	if len(bidders) <= 2 || r.Bool(0.8) {
		return append([]string(nil), bidders...)
	}
	k := 2 + r.Intn(len(bidders)-1)
	if k > len(bidders) {
		k = len(bidders)
	}
	perm := r.Perm(len(bidders))
	out := make([]string, 0, k)
	for _, i := range perm[:k] {
		out = append(out, bidders[i])
	}
	sort.Strings(out)
	return out
}

// slotCount draws the auctioned-slot count for a site (Figure 19: median
// 2-6 depending on facet; hybrid auctions the most for ~70% of sites,
// server-side has the heavier upper tail; 90th percentile 5-11).
func slotCount(r *rng.Stream, facet hb.Facet) int {
	switch facet {
	case hb.FacetClient:
		// median ~2, p90 ~5
		return 1 + boundedGeom(r, 0.42, 14)
	case hb.FacetHybrid:
		// median ~5, p90 ~9
		return 2 + boundedGeom(r, 0.25, 16)
	default: // server
		// median ~4 with a heavier tail: p90 ~11
		if r.Bool(0.12) {
			return 8 + boundedGeom(r, 0.18, 14)
		}
		return 1 + boundedGeom(r, 0.28, 12)
	}
}

// boundedGeom samples a geometric-ish count with success prob p, capped.
func boundedGeom(r *rng.Stream, p float64, cap int) int {
	n := 0
	for n < cap && !r.Bool(p) {
		n++
	}
	return n
}

// infraQuality maps rank to an infrastructure quality factor: top sites
// run faster stacks. Quality q scales publisher-side service times by
// roughly 1/q.
func infraQuality(r *rng.Stream, rank, total int) float64 {
	frac := float64(rank) / float64(total+1)
	base := 1.0 - 0.55*frac // 1.0 at the very top, 0.45 at the tail
	q := base * r.Uniform(0.85, 1.15)
	if q < 0.2 {
		q = 0.2
	}
	if q > 1.2 {
		q = 1.2
	}
	return q
}
