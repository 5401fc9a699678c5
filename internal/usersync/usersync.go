// Package usersync models the user-tracking side channel that rides along
// with Header Bidding: cookie-sync pixels fired when HB libraries load
// (protocol Step 1: "user tracking code ... is loaded as well") and the
// per-partner sync fan-out that lets demand partners recognize users
// across sites. The paper leaves privacy measurement to future work
// (§7.4) but the traffic is part of the ecosystem's network footprint,
// and the detector counts it toward HB overhead.
package usersync

import (
	"strconv"
	"time"

	"headerbid/internal/obs"
	"headerbid/internal/partners"
	"headerbid/internal/rng"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Env is the page capability needed to fire pixels.
type Env interface {
	Now() time.Time
	Fetch(req *webreq.Request, cb func(*webreq.Response))
}

// Config tunes sync behaviour for one page.
type Config struct {
	Site string
	// Partners to sync with (typically the page's demand partners).
	Partners []string
	// SyncProb is the chance each partner fires a sync pixel on this
	// visit (real pages rate-limit syncs per user; clean-state crawls
	// see a fresh sync burst every time).
	SyncProb float64
	// ChainProb is the chance a sync response redirects into another
	// partner's sync (cookie-sync chains).
	ChainProb float64
	// MaxChain bounds redirect chains.
	MaxChain int
}

// DefaultConfig returns the behaviour used by generated pages.
func DefaultConfig(site string, partnerSlugs []string) Config {
	return Config{
		Site:      site,
		Partners:  partnerSlugs,
		SyncProb:  0.8,
		ChainProb: 0.35,
		MaxChain:  3,
	}
}

// Result summarizes the sync activity of one page visit.
type Result struct {
	PixelsFired int
	Chained     int
	Partners    []string
}

// Syncer fires sync pixels for a page.
type Syncer struct {
	env Env
	reg *partners.Registry
	cfg Config
	rng *rng.Stream

	// traceSrc hands out the current visit's span recorder when the env
	// is a browser page; nil otherwise.
	traceSrc obs.TraceSource
}

// New creates a syncer; seed makes pixel decisions reproducible.
func New(env Env, reg *partners.Registry, cfg Config, seed int64) *Syncer {
	s := &Syncer{
		env: env,
		reg: reg,
		cfg: cfg,
		rng: rng.SplitStable(seed, "usersync/"+cfg.Site),
	}
	s.traceSrc, _ = env.(obs.TraceSource)
	return s
}

// vt returns the visit's recorder (nil when untraced). Callers emit
// behind vt.Enabled() — the obsguard pattern.
func (s *Syncer) vt() *obs.VisitTrace {
	if s.traceSrc == nil {
		return nil
	}
	return s.traceSrc.VisitTrace()
}

// Run fires the page's sync pixels; done receives the tally after every
// pixel (and chain hop) resolves.
func (s *Syncer) Run(done func(*Result)) {
	res := &Result{}
	pending := 0
	finish := func() {
		if pending == 0 && done != nil {
			done(res)
			done = nil
		}
	}
	for _, slug := range s.cfg.Partners {
		p, ok := s.reg.BySlug(slug)
		if !ok || !s.rng.Bool(s.cfg.SyncProb) {
			continue
		}
		res.Partners = append(res.Partners, slug)
		pending++
		s.firePixel(p, p.Slug, 0, &pending, res, finish)
	}
	finish()
}

// firePixel sends one sync pixel and possibly chains to a random other
// partner (cookie matching between exchanges). root is the slug of the
// chain's origin partner: trace spans land on the root's track, where
// hops are strictly sequential — two chains may visit the same partner
// concurrently, so keying the track by the current partner would break
// the trace's span-nesting invariant.
func (s *Syncer) firePixel(p *partners.Profile, root string, depth int, pending *int, res *Result, finish func()) {
	res.PixelsFired++
	uid := syncUID(uint32(s.rng.Int63() & 0xffffffff))
	pixelParams := urlkit.Query{{Key: "site", Value: s.cfg.Site}, {Key: "uid", Value: uid}}
	req := &webreq.Request{
		URL:    urlkit.WithQuery(p.SyncEndpoint(), pixelParams),
		Method: webreq.GET,
		Kind:   webreq.KindBeacon,
		Sent:   s.env.Now(),
	}
	req.PrefillParams(pixelParams)
	sent := req.Sent
	s.env.Fetch(req, func(*webreq.Response) {
		if vt := s.vt(); vt.Enabled() {
			detail := ""
			if depth > 0 {
				detail = "hop " + strconv.Itoa(depth) + " " + p.Slug
			}
			vt.Span(obs.TrackSyncPrefix+root, "pixel", sent, s.env.Now(), obs.SpanOpts{Detail: detail})
		}
		if depth < s.cfg.MaxChain && s.rng.Bool(s.cfg.ChainProb) {
			if next := s.randomOtherPartner(p.Slug); next != nil {
				res.Chained++
				s.firePixel(next, root, depth+1, pending, res, finish)
				return
			}
		}
		*pending--
		finish()
	})
}

func (s *Syncer) randomOtherPartner(exclude string) *partners.Profile {
	all := s.reg.All()
	for tries := 0; tries < 5; tries++ {
		p := all[s.rng.Intn(len(all))]
		if p.Slug != exclude {
			return p
		}
	}
	return nil
}

// syncUID renders "sim-" plus the zero-padded 8-hex-digit id (the
// %08x wire form) without fmt.
func syncUID(v uint32) string {
	const hex = "0123456789abcdef"
	var b [12]byte
	copy(b[:], "sim-")
	for i := 0; i < 8; i++ {
		b[11-i] = hex[v&0xf]
		v >>= 4
	}
	return string(b[:])
}
