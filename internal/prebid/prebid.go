// Package prebid emulates the prebid.js header-bidding wrapper, the
// open-source library behind ~64% of client-side HB deployments and the
// library whose event API the paper reverse-engineered. The wrapper:
//
//  1. fires auctionInit/requestBids for every ad unit,
//  2. POSTs one OpenRTB bid request per configured bidder (in parallel),
//  3. collects bidResponse events as partners answer,
//  4. enforces the wrapper timeout (default 3s) — responses after the
//     deadline are "late" and excluded from the auction,
//  5. pushes the winning key-values (hb_bidder, hb_pb, ...) to the
//     publisher's ad server, and
//  6. renders the returned creative, firing bidWon / slotRenderEnded /
//     adRenderFailed.
//
// The wrapper is written against a tiny Env seam so the same protocol code
// runs on the virtual-clock simulated network and on a real HTTP loopback
// network.
package prebid

import (
	"strconv"
	"time"

	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/obs"
	"headerbid/internal/partners"
	"headerbid/internal/rtb"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Env is the slice of browser capability the wrapper needs. It matches
// the page environment provided by package browser.
type Env interface {
	// Now returns the page's current time.
	Now() time.Time
	// After schedules fn on the page's event loop after d.
	After(d time.Duration, fn func())
	// Fetch issues an asynchronous request; cb runs on the page's event
	// loop when the response is delivered (or errors).
	Fetch(req *webreq.Request, cb func(*webreq.Response))
}

// AdUnit is one configured ad slot.
type AdUnit struct {
	Code    string    `json:"code"`
	Sizes   []hb.Size `json:"-"`
	SizeStr []string  `json:"sizes"` // wire form, e.g. ["300x250"]
	Bidders []string  `json:"bidders"`
}

// NormalizeSizes fills Sizes from SizeStr (after JSON decoding).
func (u *AdUnit) NormalizeSizes() error {
	if len(u.Sizes) > 0 || len(u.SizeStr) == 0 {
		return nil
	}
	for _, s := range u.SizeStr {
		sz, err := hb.ParseSize(s)
		if err != nil {
			return err
		}
		u.Sizes = append(u.Sizes, sz)
	}
	return nil
}

// PrimarySize returns the first configured size (the slot's render size).
func (u *AdUnit) PrimarySize() hb.Size {
	if len(u.Sizes) == 0 {
		return hb.SizeMediumRectangle
	}
	return u.Sizes[0]
}

// Config configures one wrapper instance (that is, one publisher page).
type Config struct {
	Site        string
	Page        string
	AdUnits     []AdUnit
	TimeoutMS   int  // wrapper deadline; prebid's common default is 3000
	SendAllBids bool // send hb_*_<bidder> keys for every bidder, not just the winner
	// BadWrapper reproduces the misconfiguration the paper calls out: the
	// wrapper contacts the ad server immediately instead of waiting for
	// bids, so every response arrives "late".
	BadWrapper bool
	// AdServerURL is the publisher ad-server endpoint receiving targeting.
	AdServerURL string
	// FloorCPM is advisory; the authoritative floor lives in the ad server.
	FloorCPM float64
}

// Timeout returns the configured wrapper deadline.
func (c Config) Timeout() time.Duration {
	if c.TimeoutMS <= 0 {
		return 3 * time.Second
	}
	return time.Duration(c.TimeoutMS) * time.Millisecond
}

// BidderResult tracks one bidder's progress within an auction round.
type BidderResult struct {
	Bidder    string
	Requested time.Time
	Responded time.Time
	Latency   time.Duration
	Late      bool
	Error     string
	// Retries counts transport-level retransmissions (see MaxBidRetries);
	// Latency spans from the first attempt through the final response.
	Retries int
	Bids    []hb.Bid
}

// MaxBidRetries bounds per-bidder retransmissions after transport-level
// failures (connection reset/refused — not HTTP or decode errors, which
// a real adapter would not retry). Retries run on the page's virtual
// clock with exponential backoff, so the degradation path is exactly as
// deterministic as the happy path. Both client wrappers (this one and
// pubfood) follow this one policy, and both build their bid POSTs with
// BidPost.
const MaxBidRetries = 1

// RetryBackoffBase is the first retry's backoff; attempt k waits
// RetryBackoffBase << k.
const RetryBackoffBase = 100 * time.Millisecond

// BidPost builds attempt number attempt (0 for the first) of a wrapper's
// bid POST to partner p. body is the encoded bid request and payload the
// value it was encoded from. The URL is p's pre-rendered bid URL,
// "<bid endpoint>?bidder=<slug>", plus "&retry=N" on retransmission N:
// the way real adapters tag retransmissions, and what lets the detector
// count retries off the wire. The request carries its query and its
// payload prefilled, so no in-process hop parses either.
func BidPost(p *partners.Profile, body string, payload *rtb.BidRequest, attempt int, sent time.Time) *webreq.Request {
	req := &webreq.Request{
		URL:    p.BidRequestURL(),
		Method: webreq.POST,
		Kind:   webreq.KindXHR,
		Body:   body,
		Sent:   sent,
	}
	params := p.BidRequestParams()
	if attempt > 0 {
		// "retry" sorts after the bid URL's only key, "bidder", so the
		// appended query stays key-sorted; the full slice expression
		// keeps the shared first-attempt query unwritten.
		n := strconv.Itoa(attempt)
		req.URL += "&retry=" + n
		params = append(params[:len(params):len(params)], urlkit.Param{Key: "retry", Value: n})
	}
	req.PrefillParams(params)
	req.PrefillBody(payload)
	return req
}

// UnitOutcome is the per-ad-unit auction outcome.
type UnitOutcome struct {
	AuctionID string
	AdUnit    string
	Start     time.Time
	End       time.Time
	Bids      []hb.Bid
	Winner    *hb.Bid
	// AdServerLatency is the targeting->response round trip.
	AdServerLatency time.Duration
	Rendered        bool
	RenderFailed    bool
	Channel         string // ad-server decision channel ("hb", "direct", ...)
}

// Result is the outcome of one full wrapper round (all ad units). Units
// point at live outcomes: bids that arrive after the round concluded
// (late responses) are still appended, which is exactly how the detector
// observes lateness.
type Result struct {
	Site  string
	Units []*UnitOutcome
	// FirstBidRequest and AdServerResponded delimit the paper's "total HB
	// latency" (Section 5.2): first bid request until the ad server is
	// informed and responds.
	FirstBidRequest   time.Time
	AdServerResponded time.Time
	// Bidders summarizes per-bidder timing.
	Bidders []BidderResult
}

// TotalLatency is the paper's per-site HB latency metric.
func (r *Result) TotalLatency() time.Duration {
	if r.AdServerResponded.IsZero() || r.FirstBidRequest.IsZero() {
		return 0
	}
	return r.AdServerResponded.Sub(r.FirstBidRequest)
}

// Wrapper is one page's prebid instance.
type Wrapper struct {
	env Env
	bus *events.Bus
	reg *partners.Registry
	cfg Config

	// traceSrc hands out the current visit's span recorder when the env
	// is a browser page; nil otherwise (tests driving the wrapper on a
	// bare scheduler).
	traceSrc obs.TraceSource

	auctionSeq int
}

// New creates a wrapper. bus receives the wrapper's DOM events; reg maps
// bidder codes to endpoints.
func New(env Env, bus *events.Bus, reg *partners.Registry, cfg Config) *Wrapper {
	w := &Wrapper{env: env, bus: bus, reg: reg, cfg: cfg}
	w.traceSrc, _ = env.(obs.TraceSource)
	return w
}

// vt returns the visit's recorder (nil when untraced). Callers emit
// behind vt.Enabled() — the obsguard pattern.
func (w *Wrapper) vt() *obs.VisitTrace {
	if w.traceSrc == nil {
		return nil
	}
	return w.traceSrc.VisitTrace()
}

// RequestBids runs a full auction round and calls done with the result.
// It never blocks; all work happens on the page event loop.
func (w *Wrapper) RequestBids(done func(*Result)) {
	start := w.env.Now()
	res := &Result{Site: w.cfg.Site}
	round := &roundState{
		wrapper: w,
		result:  res,
		started: start,
		pending: make(map[string]bool),
		units:   make(map[string]*UnitOutcome, len(w.cfg.AdUnits)),
		done:    done,
	}

	// Per-unit auction bookkeeping + events.
	for _, u := range w.cfg.AdUnits {
		w.auctionSeq++
		aid := appendID(w.cfg.Site, "-a", int64(w.auctionSeq))
		uo := &UnitOutcome{AuctionID: aid, AdUnit: u.Code, Start: start}
		round.units[u.Code] = uo
		res.Units = append(res.Units, uo)
		w.emit(events.Event{
			Type: events.AuctionInit, Time: start, AuctionID: aid,
			AdUnit: u.Code, Library: "prebid.js",
		})
	}
	w.emit(events.Event{Type: events.RequestBids, Time: start, Library: "prebid.js"})

	bidders := w.collectBidders()
	if len(bidders) == 0 {
		// Nothing to do: go straight to the ad server (house/direct only).
		round.finalizeAuction()
		return
	}

	timeout := w.cfg.Timeout()
	for _, bidder := range bidders {
		w.sendBidRequest(round, bidder, timeout)
	}

	if w.cfg.BadWrapper {
		// Misconfigured wrapper: contact the ad server right away; every
		// bid response will arrive after finalization and count late.
		w.env.After(0, round.finalizeAuction)
	} else {
		w.env.After(timeout, round.finalizeAuction)
	}
}

// collectBidders returns the distinct bidder codes across ad units, in
// first-seen order. Configs list at most a couple dozen bidders, so the
// dedupe is a linear scan of the output instead of a throwaway set.
func (w *Wrapper) collectBidders() []string {
	var out []string
	for _, u := range w.cfg.AdUnits {
		for _, b := range u.Bidders {
			if !contains(out, b) {
				out = append(out, b)
			}
		}
	}
	return out
}

// roundState carries one auction round across async callbacks.
type roundState struct {
	wrapper        *Wrapper
	result         *Result
	started        time.Time       // auction open (trace span anchor)
	adServerSent   time.Time       // ad-server request issued (trace span anchor)
	pending        map[string]bool // bidders not yet responded
	units          map[string]*UnitOutcome
	finalized      bool
	responded      int
	rendersPending int
	done           func(*Result)
	doneSent       bool
}

// sendBidRequest issues one bidder's POST covering every ad unit that
// lists the bidder.
func (w *Wrapper) sendBidRequest(round *roundState, bidder string, timeout time.Duration) {
	profile, ok := w.reg.BySlug(bidder)
	if !ok {
		// Unknown adapter: prebid logs and skips. Nothing hits the wire.
		return
	}
	imps := make([]rtb.Impression, 0, len(w.cfg.AdUnits))
	unitsForBidder := make([]string, 0, len(w.cfg.AdUnits))
	for _, u := range w.cfg.AdUnits {
		if !contains(u.Bidders, bidder) {
			continue
		}
		unitsForBidder = append(unitsForBidder, u.Code)
		formats := make([]rtb.Format, len(u.Sizes))
		for i, s := range u.Sizes {
			formats[i] = rtb.Format{W: s.W, H: s.H}
		}
		imps = append(imps, rtb.Impression{
			ID:       u.Code,
			Banner:   rtb.Banner{Format: formats},
			FloorCPM: w.cfg.FloorCPM,
			TagID:    u.Code,
		})
	}
	if len(imps) == 0 {
		return
	}

	now := w.env.Now()
	if round.result.FirstBidRequest.IsZero() {
		round.result.FirstBidRequest = now
	}
	round.pending[bidder] = true

	req := &rtb.BidRequest{
		ID:   bidRequestID(w.cfg.Site, bidder, now.UnixNano()),
		Imp:  imps,
		Site: rtb.Site{Domain: w.cfg.Site, Page: w.cfg.Page},
		TMax: int(timeout / time.Millisecond),
		Ext:  prebidExt(bidder),
	}
	body, err := req.EncodeString()
	if err != nil {
		delete(round.pending, bidder)
		return
	}

	for _, code := range unitsForBidder {
		uo := round.units[code]
		// The bidder already rides the event's Bidder field; the former
		// Params copy duplicated it at one map allocation per unit.
		w.emit(events.Event{
			Type: events.BidRequested, Time: now, AuctionID: uo.AuctionID,
			AdUnit: code, Bidder: bidder, Library: "prebid.js",
		})
	}

	br := BidderResult{Bidder: bidder, Requested: now}
	round.result.Bidders = append(round.result.Bidders, br)
	idx := len(round.result.Bidders) - 1

	w.dispatchBid(round, idx, profile, unitsForBidder, body, req, 0)
}

// dispatchBid issues attempt number attempt of a bidder's bid POST (the
// same body every time; BidPost tags retransmissions retry=N). A retry
// re-emits no BidRequested event: the auction asked once.
func (w *Wrapper) dispatchBid(round *roundState, idx int, profile *partners.Profile, units []string, body string, payload *rtb.BidRequest, attempt int) {
	w.env.Fetch(BidPost(profile, body, payload, attempt, w.env.Now()), func(resp *webreq.Response) {
		w.onBidResponse(round, idx, profile, units, body, payload, attempt, resp)
	})
}

// onBidResponse handles one bidder's HTTP response (possibly after the
// deadline, in which case the bids are recorded as late).
func (w *Wrapper) onBidResponse(round *roundState, idx int, profile *partners.Profile, units []string, body string, payload *rtb.BidRequest, attempt int, resp *webreq.Response) {
	bidder := round.result.Bidders[idx].Bidder
	if resp.Err != "" && attempt < MaxBidRetries && !round.finalized {
		// Transport failure with retry budget left: back off and
		// retransmit instead of conceding the bidder. The bidder stays
		// in round.pending, so early finalization keeps waiting for the
		// retry outcome (bounded by the wrapper timeout either way).
		round.result.Bidders[idx].Retries++
		w.env.After(RetryBackoffBase<<attempt, func() {
			w.dispatchBid(round, idx, profile, units, body, payload, attempt+1)
		})
		return
	}

	now := w.env.Now()
	br := &round.result.Bidders[idx]
	br.Responded = now
	br.Latency = now.Sub(br.Requested)
	br.Late = round.finalized
	round.responded++
	delete(round.pending, bidder)

	if resp.Err != "" || !resp.OK() {
		if resp.Err != "" {
			br.Error = resp.Err
		} else {
			br.Error = "http " + strconv.Itoa(resp.Status)
		}
		w.traceBidSpan(br)
		w.maybeEarlyFinalize(round)
		return
	}
	parsed, err := rtb.DecodeBidResponse(resp.Body)
	if err != nil {
		br.Error = err.Error()
		w.traceBidSpan(br)
		w.maybeEarlyFinalize(round)
		return
	}

	cur := hb.Currency(parsed.Currency)
	if cur == "" {
		cur = hb.USD
	}
	for _, seat := range parsed.SeatBid {
		for _, sb := range seat.Bid {
			uo, ok := round.units[sb.ImpID]
			if !ok {
				continue
			}
			bid := hb.Bid{
				AuctionID:  uo.AuctionID,
				AdUnit:     sb.ImpID,
				Bidder:     bidder,
				CPM:        sb.Price,
				Currency:   cur,
				Size:       hb.Size{W: sb.W, H: sb.H},
				Latency:    br.Latency,
				Late:       br.Late,
				CreativeID: sb.CrID,
				DealID:     sb.DealID,
			}
			br.Bids = append(br.Bids, bid)
			uo.Bids = append(uo.Bids, bid)
			// The DOM event fires even for late responses — that is
			// exactly how the detector observes lateness.
			w.emit(events.Event{
				Type: events.BidResponse, Time: now, AuctionID: uo.AuctionID,
				AdUnit: sb.ImpID, Bidder: bidder, CPM: bid.USDCPM(),
				Currency: cur, Size: bid.Size, Library: "prebid.js",
				Params: urlkit.Query{
					{Key: hb.KeyBidder, Value: bidder},
					{Key: hb.KeySize, Value: bid.Size.String()},
					{Key: "late", Value: strconv.FormatBool(br.Late)},
				},
			})
		}
	}
	w.traceBidSpan(br)
	w.maybeEarlyFinalize(round)
}

// traceBidSpan records one bidder's request→response interval on the
// visit trace, with the lateness/retry/error annotations the paper's
// per-partner timing analysis is about. No-op (and allocation-free)
// when the visit is untraced.
func (w *Wrapper) traceBidSpan(br *BidderResult) {
	if vt := w.vt(); vt.Enabled() {
		vt.Span(obs.TrackBidderPrefix+br.Bidder, "bid", br.Requested, br.Responded, obs.SpanOpts{
			Late:    br.Late,
			Retries: br.Retries,
			Detail:  br.Error,
		})
	}
}

// maybeEarlyFinalize ends the auction before the deadline once every
// bidder has answered (prebid's normal fast path).
func (w *Wrapper) maybeEarlyFinalize(round *roundState) {
	if !round.finalized && len(round.pending) == 0 {
		round.finalizeAuction()
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// appendID renders "<prefix><sep><n>" (the auction-ID shape previously
// minted with fmt.Sprintf on every ad unit of every visit): one strconv
// format — allocation-free for the small sequence numbers involved —
// plus a single string concatenation.
func appendID(prefix, sep string, n int64) string {
	return prefix + sep + strconv.FormatInt(n, 10)
}

// prebidExt renders the OpenRTB ext fragment {"prebid":{"bidder":"x"}}
// directly; bidder slugs are plain ASCII identifiers, so no JSON
// escaping is needed and the bytes match the former map encoding.
func prebidExt(bidder string) []byte {
	b := make([]byte, 0, len(bidder)+26)
	b = append(b, `{"prebid":{"bidder":"`...)
	b = append(b, bidder...)
	b = append(b, `"}}`...)
	return b
}

// bidRequestID renders "<site>-<bidder>-<unixnano>" with one strconv
// format and a single four-operand concatenation.
func bidRequestID(site, bidder string, nano int64) string {
	return site + "-" + bidder + "-" + strconv.FormatInt(nano, 10)
}

func (w *Wrapper) emit(e events.Event) {
	if w.bus != nil {
		w.bus.Emit(e)
	}
}
