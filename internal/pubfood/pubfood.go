// Package pubfood emulates the pubfood.js header-bidding library, the
// third wrapper the paper analyzed (§3.1) alongside prebid.js and gpt.js.
// Pubfood's protocol role is the same as prebid's — parallel bid requests,
// a deadline, targeting pushed to the ad server — but its API surface
// differs: it models "bid providers" and "auction providers" and fires a
// slightly different event sequence. Detecting it exercises the
// detector's claim of being library-agnostic over the shared event
// vocabulary.
package pubfood

import (
	"strconv"
	"strings"
	"time"

	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/obs"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
	"headerbid/internal/rtb"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Env is the page capability the library needs.
type Env interface {
	Now() time.Time
	After(d time.Duration, fn func())
	Fetch(req *webreq.Request, cb func(*webreq.Response))
	// NewRequest returns a zeroed request to fill and fetch, valid for
	// the rest of the page's visit.
	NewRequest() *webreq.Request
}

// Slot is one pubfood slot definition (pubfood separates slots from the
// bid providers serving them).
type Slot struct {
	Name string
	Size hb.Size
	Elem string // DOM element id
}

// BidProvider is one configured demand source.
type BidProvider struct {
	Name string // partner slug
}

// Config is one page's pubfood setup.
type Config struct {
	Site        string
	Slots       []Slot
	Providers   []BidProvider
	TimeoutMS   int
	AdServerURL string
	FloorCPM    float64
}

// Timeout returns the auction deadline (pubfood's examples default 2s).
func (c Config) Timeout() time.Duration {
	if c.TimeoutMS <= 0 {
		return 2 * time.Second
	}
	return time.Duration(c.TimeoutMS) * time.Millisecond
}

// SlotResult is one slot's outcome.
type SlotResult struct {
	Slot     string
	Bids     []hb.Bid
	Winner   *hb.Bid
	Rendered bool
}

// Result is a completed pubfood round.
type Result struct {
	Site              string
	Slots             []*SlotResult
	Started           time.Time
	AdServerResponded time.Time
}

// Library drives one pubfood round.
type Library struct {
	env Env
	bus *events.Bus
	reg *partners.Registry
	cfg Config

	// traceSrc hands out the current visit's span recorder when the env
	// is a browser page; nil otherwise.
	traceSrc obs.TraceSource

	// decoded is the bid response being read, reused by the next one.
	decoded rtb.BidResponse
}

// New creates a pubfood library instance.
func New(env Env, bus *events.Bus, reg *partners.Registry, cfg Config) *Library {
	l := &Library{env: env, bus: bus, reg: reg, cfg: cfg}
	l.traceSrc, _ = env.(obs.TraceSource)
	return l
}

// vt returns the visit's recorder (nil when untraced). Callers emit
// behind vt.Enabled() — the obsguard pattern.
func (l *Library) vt() *obs.VisitTrace {
	if l.traceSrc == nil {
		return nil
	}
	return l.traceSrc.VisitTrace()
}

// Start runs the round; done receives the result after the ad server
// responds and renders settle.
func (l *Library) Start(done func(*Result)) {
	now := l.env.Now()
	res := &Result{Site: l.cfg.Site, Started: now}
	bySlot := make(map[string]*SlotResult, len(l.cfg.Slots))
	auctionIDs := make(map[string]string, len(l.cfg.Slots))
	for i, s := range l.cfg.Slots {
		sr := &SlotResult{Slot: s.Name}
		bySlot[s.Name] = sr
		res.Slots = append(res.Slots, sr)
		aid := l.cfg.Site + "-pf" + strconv.Itoa(i+1)
		auctionIDs[s.Name] = aid
		l.emit(events.Event{
			Type: events.AuctionInit, Time: now, AuctionID: aid,
			AdUnit: s.Name, Library: "pubfood.js",
		})
	}
	l.emit(events.Event{Type: events.RequestBids, Time: now, Library: "pubfood.js"})

	pending := 0
	outstanding := map[string]bool{}
	finalized := false
	finalize := func() {
		if finalized {
			return
		}
		finalized = true
		end := l.env.Now()
		vt := l.vt()
		if vt.Enabled() {
			vt.Span(obs.TrackAuction, "auction", res.Started, end, obs.SpanOpts{
				Detail: l.cfg.Site,
			})
		}
		// Providers that have not answered by the deadline time out, in
		// request order; the event lets observers attribute their
		// eventual responses as late.
		for _, p := range l.cfg.Providers {
			prof, ok := l.reg.BySlug(p.Name)
			if !ok || !outstanding[prof.Slug] {
				continue
			}
			l.emit(events.Event{
				Type: events.BidTimeout, Time: end, Bidder: prof.Slug, Library: "pubfood.js",
			})
			if vt.Enabled() {
				vt.Instant(obs.TrackBidderPrefix+prof.Slug, "timeout", end, "")
			}
		}
		for _, s := range l.cfg.Slots {
			sr := bySlot[s.Name]
			l.emit(events.Event{
				Type: events.AuctionEnd, Time: end, AuctionID: auctionIDs[s.Name],
				AdUnit: s.Name, Library: "pubfood.js",
			})
			for i := range sr.Bids {
				b := &sr.Bids[i]
				if sr.Winner == nil || (!b.Late && b.USDCPM() > sr.Winner.USDCPM()) {
					if !b.Late {
						sr.Winner = b
					}
				}
			}
		}
		l.callAdServer(res, bySlot, auctionIDs, done)
	}

	// One completion callback shared by every provider (the slug rides
	// in as an argument), instead of a fresh closure per provider.
	onDone := func(slug string) {
		delete(outstanding, slug)
		if pending == 0 && !finalized {
			finalize()
		}
	}
	for _, p := range l.cfg.Providers {
		prof, ok := l.reg.BySlug(p.Name)
		if !ok {
			continue
		}
		pending++
		outstanding[prof.Slug] = true
		l.sendBid(prof, bySlot, auctionIDs, &pending, onDone)
	}
	if pending == 0 {
		finalize()
		return
	}
	l.env.After(l.cfg.Timeout(), finalize)
}

// sendBid issues one provider's request covering all slots. onDone is
// shared across providers and receives this provider's slug.
func (l *Library) sendBid(prof *partners.Profile, bySlot map[string]*SlotResult,
	auctionIDs map[string]string, pending *int, onDone func(slug string)) {
	now := l.env.Now()
	var imps []rtb.Impression
	for _, s := range l.cfg.Slots {
		imps = append(imps, rtb.Impression{
			ID:       s.Name,
			Banner:   rtb.Banner{Format: []rtb.Format{{W: s.Size.W, H: s.Size.H}}},
			FloorCPM: l.cfg.FloorCPM,
		})
		l.emit(events.Event{
			Type: events.BidRequested, Time: now, AuctionID: auctionIDs[s.Name],
			AdUnit: s.Name, Bidder: prof.Slug, Library: "pubfood.js",
		})
	}
	breq := &rtb.BidRequest{
		ID:   "pf-" + prof.Slug + "-" + strconv.FormatInt(now.UnixNano(), 10),
		Imp:  imps,
		Site: rtb.Site{Domain: l.cfg.Site},
		TMax: int(l.cfg.Timeout() / time.Millisecond),
	}
	bodyLen, err := breq.EncodedLen()
	if err != nil {
		*pending--
		onDone(prof.Slug)
		return
	}
	l.dispatchBid(prof, bySlot, auctionIDs, pending, onDone, breq, bodyLen, now, 0)
}

// dispatchBid issues one bid POST attempt, built and retried under
// prebid's transport-retry policy (prebid.BidPost, prebid.MaxBidRetries):
// a transport failure with retry budget left backs off on the virtual
// clock and retransmits. The provider is only marked done — and pending
// only decremented — when its final attempt resolves, so auction
// completion waits for the retry outcome (bounded by the auction
// deadline either way).
func (l *Library) dispatchBid(prof *partners.Profile, bySlot map[string]*SlotResult,
	auctionIDs map[string]string, pending *int, onDone func(slug string),
	payload *rtb.BidRequest, bodyLen int, sent time.Time, attempt int) {
	req := prebid.BidPost(l.env.NewRequest(), prof, payload, bodyLen, attempt, l.env.Now())
	l.env.Fetch(req, func(resp *webreq.Response) {
		if resp.Err != "" && attempt < prebid.MaxBidRetries {
			l.env.After(prebid.RetryBackoffBase<<attempt, func() {
				l.dispatchBid(prof, bySlot, auctionIDs, pending, onDone, payload, bodyLen, sent, attempt+1)
			})
			return
		}
		*pending--
		defer onDone(prof.Slug)
		if vt := l.vt(); vt.Enabled() {
			arrive := l.env.Now()
			detail := ""
			if resp.Err != "" {
				detail = resp.Err
			} else if !resp.OK() {
				detail = "http " + strconv.Itoa(resp.Status)
			}
			vt.Span(obs.TrackBidderPrefix+prof.Slug, "bid", sent, arrive, obs.SpanOpts{
				Late:    arrive.Sub(sent) > l.cfg.Timeout(),
				Retries: attempt,
				Detail:  detail,
			})
		}
		if !resp.OK() {
			return
		}
		parsed := &l.decoded
		if err := rtb.DecodeBidResponse(resp.Body, parsed); err != nil {
			return
		}
		arrive := l.env.Now()
		late := arrive.Sub(sent) > l.cfg.Timeout()
		cur := hb.Currency(parsed.Currency)
		if cur == "" {
			cur = hb.USD
		}
		for _, seat := range parsed.SeatBid {
			for _, sb := range seat.Bid {
				sr, ok := bySlot[sb.ImpID]
				if !ok {
					continue
				}
				bid := hb.Bid{
					AuctionID: auctionIDs[sb.ImpID],
					AdUnit:    sb.ImpID,
					Bidder:    prof.Slug,
					CPM:       sb.Price,
					Currency:  cur,
					Size:      hb.Size{W: sb.W, H: sb.H},
					Latency:   arrive.Sub(sent),
					Late:      late,
				}
				sr.Bids = append(sr.Bids, bid)
				l.emit(events.Event{
					Type: events.BidResponse, Time: arrive,
					AuctionID: auctionIDs[sb.ImpID], AdUnit: sb.ImpID,
					Bidder: prof.Slug, CPM: bid.USDCPM(), Currency: cur,
					Size: bid.Size, Library: "pubfood.js",
				})
			}
		}
	})
}

// callAdServer pushes targeting and renders returned creatives.
func (l *Library) callAdServer(res *Result, bySlot map[string]*SlotResult,
	auctionIDs map[string]string, done func(*Result)) {
	now := l.env.Now()
	params := urlkit.Query{{Key: "site", Value: l.cfg.Site}}
	var specs []string
	for _, s := range l.cfg.Slots {
		specs = append(specs, s.Name+"|"+s.Size.String())
		if w := bySlot[s.Name].Winner; w != nil {
			for _, p := range hb.TargetingFromBid(*w) {
				params.Set(p.Key+"."+s.Name, p.Value)
			}
		}
	}
	params.Set("slots", strings.Join(specs, ","))
	l.emit(events.Event{Type: events.SetTargeting, Time: now, Library: "pubfood.js", Params: params})

	req := l.env.NewRequest()
	req.URL = urlkit.WithQuery(l.cfg.AdServerURL, params)
	req.Method = webreq.GET
	req.Kind = webreq.KindXHR
	req.Sent = now
	if !strings.Contains(l.cfg.AdServerURL, "?") {
		req.PrefillParams(params)
	}
	l.env.Fetch(req, func(resp *webreq.Response) {
		res.AdServerResponded = l.env.Now()
		if vt := l.vt(); vt.Enabled() {
			detail := ""
			if resp != nil && resp.Err != "" {
				detail = resp.Err
			}
			vt.Span(obs.TrackAdServer, "adserver", now, res.AdServerResponded, obs.SpanOpts{Detail: detail})
		}
		l.render(res, bySlot, auctionIDs, resp, done)
	})
}

func (l *Library) render(res *Result, bySlot map[string]*SlotResult,
	auctionIDs map[string]string, resp *webreq.Response, done func(*Result)) {
	pending := 0
	finish := func() {
		if pending == 0 && done != nil {
			done(res)
			done = nil
		}
	}
	if !resp.OK() {
		finish()
		return
	}
	lines := hb.ScanSlotLines(resp.Body)
	for line, ok := lines.Next(); ok; line, ok = lines.Next() {
		if line.CreativeURL == "" {
			continue
		}
		sr, found := bySlot[line.Slot]
		if !found {
			continue
		}
		slotName, channel, fails := line.Slot, line.Channel, line.Fails
		pending++
		creq := l.env.NewRequest()
		creq.URL, creq.Method, creq.Kind, creq.Sent = line.CreativeURL, webreq.GET, webreq.KindCreative, l.env.Now()
		l.env.Fetch(creq, func(cresp *webreq.Response) { //hbvet:allow hotalloc one closure per creative fetch: it carries the line's slot, channel and fail flag to the response, and Fetch offers no other per-request state
			pending--
			now := l.env.Now()
			if fails || !cresp.OK() {
				l.emit(events.Event{
					Type: events.AdRenderFailed, Time: now,
					AuctionID: auctionIDs[slotName], AdUnit: slotName, Library: "pubfood.js",
				})
			} else {
				sr.Rendered = true
				if channel == "hb" && sr.Winner != nil {
					l.emit(events.Event{
						Type: events.BidWon, Time: now, AuctionID: auctionIDs[slotName],
						AdUnit: slotName, Bidder: sr.Winner.Bidder,
						CPM: sr.Winner.USDCPM(), Size: sr.Winner.Size, Library: "pubfood.js",
					})
				}
				l.emit(events.Event{
					Type: events.SlotRenderEnded, Time: now,
					AuctionID: auctionIDs[slotName], AdUnit: slotName,
					Size: slotSize(l.cfg.Slots, slotName), Library: "pubfood.js",
					Params: creq.Params(), // the fetch's own parse of the creative URL
				})
			}
			finish()
		})
	}
	finish()
}

func (l *Library) emit(e events.Event) {
	if l.bus != nil {
		l.bus.Emit(e)
	}
}

func slotSize(slots []Slot, name string) hb.Size {
	for _, s := range slots {
		if s.Name == name {
			return s.Size
		}
	}
	return hb.Size{}
}
