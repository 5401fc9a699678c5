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

// Env is the page capability needed to fire pixels (the call-style shape
// of prebid.Env).
type Env interface {
	Now() time.Time
	FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any)
	NewRequest() *webreq.Request
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

// Syncer fires sync pixels for a page. Its stream and pixel state are
// reused by the next page after Reset; a Syncer runs one page at a time,
// and the previous page's callbacks must no longer fire.
type Syncer struct {
	env Env
	reg *partners.Registry
	cfg Config
	rng rng.Stream

	// traceSrc hands out the current visit's span recorder when the env
	// is a browser page; nil otherwise.
	traceSrc obs.TraceSource

	// Run's state: the tally (nil when nobody asked for it), the pixels
	// and chain hops still in flight, and the pixels themselves.
	res     *Result
	done    func(*Result)
	pending int
	pixels  webreq.Slab[pixel]
}

// pixel is one sync pixel in flight. root is the slug of the chain's
// origin partner: trace spans land on the root's track, where hops are
// strictly sequential — two chains may visit the same partner
// concurrently, so keying the track by the current partner would break
// the trace's span-nesting invariant.
type pixel struct {
	s     *Syncer
	p     *partners.Profile
	root  string
	depth int
	sent  time.Time
	// params is the pixel request's query, prefilled into the request:
	// both live until the syncer's next Reset and the page's next Rebind.
	// The uid is written into the URL alone, and its value here is a
	// substring of the URL (urlkit.WithLastValue).
	params [2]urlkit.Param
}

// syncStream is the hashed prefix of a page's sync stream name,
// "usersync/<site>".
var syncStream = rng.NameOf("usersync/")

// Reset binds the syncer to a page, keeping its pixel storage for
// reuse; seed makes pixel decisions reproducible. The zero Syncer is
// ready for its first Reset.
func (s *Syncer) Reset(env Env, reg *partners.Registry, cfg Config, seed int64) {
	s.env, s.reg, s.cfg = env, reg, cfg
	s.rng.ReseedStable(seed, syncStream.Append(cfg.Site))
	s.traceSrc, _ = env.(obs.TraceSource)
	s.res, s.done, s.pending = nil, nil, 0
	s.pixels.Reset()
}

// vt returns the visit's recorder (nil when untraced). Callers emit
// behind vt.Enabled() — the obsguard pattern.
func (s *Syncer) vt() *obs.VisitTrace {
	if s.traceSrc == nil {
		return nil
	}
	return s.traceSrc.VisitTrace()
}

// Run fires the page's sync pixels; done, when non-nil, receives the
// tally after every pixel (and chain hop) resolves. A nil done keeps no
// tally.
func (s *Syncer) Run(done func(*Result)) {
	s.done, s.pending = done, 0
	s.res = nil
	if done != nil {
		s.res = &Result{}
	}
	for _, slug := range s.cfg.Partners {
		p, ok := s.reg.BySlug(slug)
		if !ok || !s.rng.Bool(s.cfg.SyncProb) {
			continue
		}
		if s.res != nil {
			s.res.Partners = append(s.res.Partners, slug)
		}
		s.pending++
		s.firePixel(p, p.Slug, 0)
	}
	s.finish()
}

// finish hands the tally over once nothing is in flight.
func (s *Syncer) finish() {
	if s.pending == 0 && s.done != nil {
		done := s.done
		s.done = nil
		done(s.res)
	}
}

// firePixel sends one sync pixel; its response may chain to a random
// other partner (cookie matching between exchanges).
func (s *Syncer) firePixel(p *partners.Profile, root string, depth int) {
	if s.res != nil {
		s.res.PixelsFired++
	}
	var buf [12]byte
	uid := appendSyncUID(buf[:0], uint32(s.rng.Int63()&0xffffffff))
	now := s.env.Now()
	px := s.pixels.Alloc()
	*px = pixel{s: s, p: p, root: root, depth: depth, sent: now,
		params: [2]urlkit.Param{{Key: "site", Value: s.cfg.Site}, {Key: "uid"}}}
	req := s.env.NewRequest()
	req.URL = urlkit.WithLastValue(p.SyncEndpoint(), px.params[:], uid)
	req.Method = webreq.GET
	req.Kind = webreq.KindBeacon
	req.Sent = now
	req.PrefillParams(px.params[:])
	s.env.FetchCall(req, pixelCall, px)
}

func pixelCall(_ *webreq.Response, a any) { a.(*pixel).onResponse() }

func (px *pixel) onResponse() {
	s, p := px.s, px.p
	if vt := s.vt(); vt.Enabled() {
		detail := ""
		if px.depth > 0 {
			detail = "hop " + strconv.Itoa(px.depth) + " " + p.Slug
		}
		vt.Span(obs.TrackSyncPrefix+px.root, "pixel", px.sent, s.env.Now(), obs.SpanOpts{Detail: detail})
	}
	if px.depth < s.cfg.MaxChain && s.rng.Bool(s.cfg.ChainProb) {
		if next := s.randomOtherPartner(p.Slug); next != nil {
			if s.res != nil {
				s.res.Chained++
			}
			s.firePixel(next, px.root, px.depth+1)
			return
		}
	}
	s.pending--
	s.finish()
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

// appendSyncUID appends "sim-" plus the zero-padded 8-hex-digit id (the
// %08x wire form) to dst without fmt.
func appendSyncUID(dst []byte, v uint32) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, "sim-"...)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[v>>shift&0xf])
	}
	return dst
}
