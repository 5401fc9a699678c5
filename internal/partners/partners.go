// Package partners models the Demand Partners of the HB ecosystem: the 84
// companies the paper observed bidding across the crawled sites. Each
// partner carries a behavioural profile — endpoint hosts, popularity,
// latency distribution, bid propensity, baseline price distribution and
// late-bid propensity — calibrated from the paper's Figures 8, 10, 11, 14,
// 16, 18 and 24. The registry also serves as the detector's "known HB
// partner list" (Section 3.1, method 3).
package partners

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"headerbid/internal/rng"
	"headerbid/internal/urlkit"
)

// Role flags describe what a partner can do in the ecosystem.
type Role uint8

const (
	// RoleBidder can answer client-side bid requests (has a prebid adapter).
	RoleBidder Role = 1 << iota
	// RoleAdServer can act as a publisher ad server (DFP, Smart AdServer).
	RoleAdServer
	// RoleServerSide offers a hosted server-side HB service.
	RoleServerSide
)

// Profile is the static description and behavioural calibration of one
// demand partner.
type Profile struct {
	Slug   string // bidder code as it appears in wrapper configs
	Name   string // display name used in the paper's figures
	Host   string // registrable domain of the bid endpoint
	Roles  Role
	Weight float64 // popularity weight for publisher selection (Fig 8)

	// Latency calibration: median and p90 of the browser-observed
	// request->response time, in milliseconds (Fig 14 / Fig 16).
	MedianMS float64
	P90MS    float64

	// BidProb is the probability the partner returns a bid for a
	// clean-state (no user profile) request; the paper observed ~0.3 bids
	// per auction overall because partners rarely bid on unknown users.
	BidProb float64

	// PriceMedianUSD / PriceSigma parameterize the lognormal baseline CPM
	// the partner bids (Fig 22-24). Popular partners bid low and
	// consistently; obscure ones bid high with large variance.
	PriceMedianUSD float64
	PriceSigma     float64

	// LateProb is the probability that a response is delayed past the
	// wrapper deadline (Fig 17-18): a mix of partner infrastructure and
	// badly configured wrappers that do not wait for responses.
	LateProb float64

	// DSPCount is the number of affiliated DSPs in the partner's internal
	// RTB auction; larger internal auctions add latency variability.
	DSPCount int

	// Pre-rendered per-profile constants, filled at registry construction
	// so the per-visit protocol emulation never re-mints them: endpoint
	// URLs (previously one fmt.Sprintf per bid request of every visit)
	// and the lognormal latency parameters (previously two math.Log calls
	// per latency sample).
	bidEndpoint  string
	syncEndpoint string
	bidReqURL    string
	bidReqParams urlkit.Query
	latMu        float64
	latSigma     float64
	latReady     bool

	// Protocol constants, rendered for the whole registry on first use
	// (Registry.renderWire) rather than at construction: the registries
	// built to decode or render metrics never send a bid request. reg
	// is nil for a profile built outside a registry.
	reg       *Registry
	bidReqExt []byte
	hostedURL string
}

// HasRole reports whether the profile has the given role flag.
func (p *Profile) HasRole(r Role) bool { return p.Roles&r != 0 }

// precompute fills the profile's derived constants (idempotent).
func (p *Profile) precompute() {
	p.bidEndpoint = "https://bid." + p.Host + "/hb/v1/bid"
	p.syncEndpoint = "https://sync." + p.Host + "/pixel"
	// "bidder" is hb.KeyBidderFull, prebid's bid-request parameter; the
	// literal avoids a partners→hb dependency for one constant.
	p.bidReqParams = urlkit.Query{{Key: "bidder", Value: p.Slug}}
	p.bidReqURL = urlkit.WithQuery(p.bidEndpoint, p.bidReqParams)
	p.latMu, p.latSigma = rng.LogNormalParams(p.MedianMS, p.P90MS)
	p.latReady = true
}

// BidRequestURL returns the bid endpoint with the bidder parameter
// attached — the exact URL prebid POSTs to, rendered once per profile
// instead of once per bid request of every visit.
func (p *Profile) BidRequestURL() string {
	if p.bidReqURL == "" {
		return urlkit.WithQuery(p.BidEndpoint(), p.BidRequestParams())
	}
	return p.bidReqURL
}

// BidRequestParams returns the shared query-parameter view matching
// BidRequestURL (for webreq.Request.PrefillParams). The query is shared
// across every bid request to this partner: treat it as read-only.
func (p *Profile) BidRequestParams() urlkit.Query {
	if p.bidReqParams == nil {
		return urlkit.Query{{Key: "bidder", Value: p.Slug}}
	}
	return p.bidReqParams
}

// BidRequestExt returns the OpenRTB ext a prebid adapter sends this
// partner, {"prebid":{"bidder":"<slug>"}}. Slugs are plain ASCII
// identifiers, so no JSON escaping is needed. The bytes are shared by
// every bid request to this partner: treat them as read-only.
func (p *Profile) BidRequestExt() []byte {
	if p.reg == nil {
		return bidRequestExt(p.Slug)
	}
	p.reg.renderWire()
	return p.bidReqExt
}

func bidRequestExt(slug string) []byte {
	b := make([]byte, 0, len(slug)+26)
	b = append(b, `{"prebid":{"bidder":"`...)
	b = append(b, slug...)
	b = append(b, `"}}`...)
	return b
}

// HostedAuctionURL returns the endpoint of the partner's hosted
// (server-side) auction.
func (p *Profile) HostedAuctionURL() string {
	if p.reg == nil {
		return hostedAuctionURL(p.Host)
	}
	p.reg.renderWire()
	return p.hostedURL
}

func hostedAuctionURL(host string) string { return "https://hb." + host + "/ssp/auction" }

// BidEndpoint returns the URL wrappers POST bid requests to.
func (p *Profile) BidEndpoint() string {
	if p.bidEndpoint == "" {
		return "https://bid." + p.Host + "/hb/v1/bid"
	}
	return p.bidEndpoint
}

// SyncEndpoint returns the user-sync (cookie match) pixel URL.
func (p *Profile) SyncEndpoint() string {
	if p.syncEndpoint == "" {
		return "https://sync." + p.Host + "/pixel"
	}
	return p.syncEndpoint
}

// LatencyParams converts the calibrated median/p90 into lognormal (mu,
// sigma) in milliseconds.
func (p *Profile) LatencyParams() (mu, sigma float64) {
	if !p.latReady {
		return rng.LogNormalParams(p.MedianMS, p.P90MS)
	}
	return p.latMu, p.latSigma
}

// SampleLatency draws one response latency for this partner.
func (p *Profile) SampleLatency(r *rng.Stream) time.Duration {
	mu, sigma := p.LatencyParams()
	ms := r.LogNormal(mu, sigma)
	if ms < 1 {
		ms = 1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// SampleCPM draws one baseline bid price in USD CPM: lognormal around the
// calibrated median with the calibrated spread, clamped to a sane range.
func (p *Profile) SampleCPM(r *rng.Stream) float64 {
	med := p.PriceMedianUSD
	if med <= 0 {
		med = 1e-6
	}
	v := r.LogNormal(math.Log(med), p.PriceSigma)
	if v < 0.0001 {
		v = 0.0001
	}
	if v > 20 {
		v = 20
	}
	return v
}

// Registry is an immutable set of partner profiles with fast lookup by
// slug and by registrable endpoint domain. Every derived view (All,
// Slugs, Bidders, ServerSideProviders, Domains, PopularityRank) is
// computed once at construction and returned shared: the crawler asks for
// these views on every visit, so rebuilding and re-sorting them per call
// was a measurable slice of crawl allocations.
type Registry struct {
	profiles []Profile
	bySlug   map[string]*Profile
	byDomain map[string]*Profile

	// Views derived at construction. The slices are built with exact
	// capacity, so a caller appending to a returned view always
	// reallocates instead of scribbling over the shared backing array;
	// the contents themselves are shared and must not be modified.
	all        []*Profile
	bidders    []*Profile
	serverSide []*Profile
	rankBySlug map[string]int

	wireOnce sync.Once // renderWire
}

// renderWire renders every profile's protocol constants, once per
// registry; the crawl's workers and sweep variants share them read-only.
func (r *Registry) renderWire() {
	r.wireOnce.Do(func() {
		for i := range r.profiles {
			p := &r.profiles[i]
			p.bidReqExt = bidRequestExt(p.Slug)
			p.hostedURL = hostedAuctionURL(p.Host)
		}
	})
}

// NewRegistry builds a registry from profiles. Duplicate slugs panic: the
// registry is constructed from the static table below and a duplicate is a
// programming error.
func NewRegistry(profiles []Profile) *Registry {
	r := &Registry{
		profiles: append([]Profile(nil), profiles...),
		bySlug:   make(map[string]*Profile, len(profiles)),
		byDomain: make(map[string]*Profile, len(profiles)),
	}
	for i := range r.profiles {
		p := &r.profiles[i]
		if _, dup := r.bySlug[p.Slug]; dup {
			panic("partners: duplicate slug " + p.Slug)
		}
		p.precompute()
		p.reg = r
		r.bySlug[p.Slug] = p
		r.byDomain[urlkit.RegistrableDomain(p.Host)] = p
	}

	// Popularity order underpins every other view.
	r.all = make([]*Profile, 0, len(r.profiles))
	for i := range r.profiles {
		r.all = append(r.all, &r.profiles[i])
	}
	sort.SliceStable(r.all, func(a, b int) bool { return r.all[a].Weight > r.all[b].Weight })

	r.rankBySlug = make(map[string]int, len(r.all))
	var nBidders, nServer int
	for i, p := range r.all {
		r.rankBySlug[p.Slug] = i + 1
		if p.HasRole(RoleBidder) {
			nBidders++
		}
		if p.HasRole(RoleServerSide) {
			nServer++
		}
	}
	r.bidders = make([]*Profile, 0, nBidders)
	r.serverSide = make([]*Profile, 0, nServer)
	for _, p := range r.all {
		if p.HasRole(RoleBidder) {
			r.bidders = append(r.bidders, p)
		}
		if p.HasRole(RoleServerSide) {
			r.serverSide = append(r.serverSide, p)
		}
	}
	return r
}

// Default returns the registry of the 84 partners observed in the study.
// It is one process-wide value, built on first use: a Registry is
// immutable, so worlds, shard-file decodes and figure reports share it.
func Default() *Registry { return defaultRegistry() }

var defaultRegistry = sync.OnceValue(func() *Registry { return NewRegistry(defaultProfiles()) })

// Len returns the number of partners.
func (r *Registry) Len() int { return len(r.profiles) }

// All returns the profiles ordered by descending Weight (popularity rank
// order, as used when the paper bins partners by popularity). The slice
// is shared and computed at construction; callers must not modify it.
func (r *Registry) All() []*Profile { return r.all }

// BySlug looks a partner up by bidder code.
func (r *Registry) BySlug(slug string) (*Profile, bool) {
	p, ok := r.bySlug[strings.ToLower(slug)]
	return p, ok
}

// ByURL attributes a URL to a partner via registrable-domain matching,
// the rule the detector applies to web requests.
func (r *Registry) ByURL(raw string) (*Profile, bool) {
	host := urlkit.Host(raw)
	if host == "" {
		return nil, false
	}
	return r.ByDomain(urlkit.RegistrableDomain(host))
}

// ByDomain looks a partner up by registrable endpoint domain — the
// pre-parsed key webreq.Request.RegistrableHost returns, letting hot
// paths skip the URL re-parse ByURL would do.
func (r *Registry) ByDomain(domain string) (*Profile, bool) {
	p, ok := r.byDomain[domain]
	return p, ok
}

// Bidders returns the partners that can answer client-side bid requests,
// in popularity order. The slice is shared; callers must not modify it.
func (r *Registry) Bidders() []*Profile { return r.bidders }

// ServerSideProviders returns partners offering hosted HB. The slice is
// shared; callers must not modify it.
func (r *Registry) ServerSideProviders() []*Profile { return r.serverSide }

// PopularityRank returns the 1-based popularity rank of a slug (1 = most
// popular) and false if unknown.
func (r *Registry) PopularityRank(slug string) (int, bool) {
	rank, ok := r.rankBySlug[slug]
	return rank, ok
}
