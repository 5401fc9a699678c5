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
	"slices"
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
// the page environment provided by package browser. Callbacks are
// (function, argument) pairs, so the wrapper schedules its steps on its
// own pooled state instead of allocating a closure per fetch or timer.
type Env interface {
	// Now returns the page's current time.
	Now() time.Time
	// AfterCall schedules fn(arg) on the page's event loop after d.
	AfterCall(d time.Duration, fn func(any), arg any)
	// FetchCall issues an asynchronous request; fn(resp, arg) runs on
	// the page's event loop when the response is delivered (or errors).
	FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any)
	// NewRequest returns a zeroed request to fill and fetch, valid for
	// the rest of the page's visit.
	NewRequest() *webreq.Request
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

// BidPost fills req, a zeroed request, as attempt number attempt (0 for
// the first) of a wrapper's bid POST to partner p, and returns it. The
// body is payload, bodyLen bytes once encoded: the sender has encoded it
// once (rtb.BidRequest.EncodedLen) and dropped the request if that
// failed, and payload must stay unmodified as long as the request lives.
// The URL is p's pre-rendered bid URL, "<bid endpoint>?bidder=<slug>",
// plus "&retry=N" on retransmission N: the way real adapters tag
// retransmissions, and what lets the detector count retries off the
// wire. The request carries its query prefilled and its body typed, so
// no in-process hop parses either, and the body's bytes are built only
// for a reader of bytes (webreq.Request.Body).
func BidPost(req *webreq.Request, p *partners.Profile, payload *rtb.BidRequest, bodyLen, attempt int, sent time.Time) *webreq.Request {
	req.URL = p.BidRequestURL()
	req.Method = webreq.POST
	req.Kind = webreq.KindXHR
	req.Sent = sent
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
	req.SetPayload(payload, bodyLen)
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
// observes lateness. A Result lives in its wrapper's storage and is
// valid until the wrapper's next RequestBids or Reset.
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

// Wrapper is one page's prebid instance. It runs one auction round at a
// time: the round's state lives in the wrapper and is reused by its next
// round, and by the next page after Reset, so a pooled wrapper allocates
// no per-unit or per-bidder bookkeeping once its storage covers the
// largest round it has run. A round's callbacks must not fire after the
// next RequestBids or Reset (the crawler resets its scheduler, dropping
// them, before every visit).
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

	// The round's storage (RequestBids rewinds it).
	round   roundState
	result  Result
	units   []UnitOutcome // one per ad unit, in config order
	bidders []string      // distinct bidders, in first-seen order
	sends   []bidSend     // one per bidder sent a request, as result.Bidders
	formats []rtb.Format  // every unit's formats, in config order
	renders []renderCall  // one per rendered slot
	// idBuf and idEnds are where roundIDs writes the round's IDs before
	// they become one string, and where each ID ends in it.
	idBuf  []byte
	idEnds []int
	// queries holds the round's event queries and its ad-server query;
	// decoded is the bid response being read (onBidResponse), and seats
	// keeps its seat storage across a response that carries none: a
	// no-bid response decodes to a nil SeatBid, and without this handle
	// the next one with seats allocates them again (PERF.md, ninth pass).
	queries urlkit.Queries
	decoded rtb.BidResponse
	seats   []rtb.SeatBid
}

// Reset binds the wrapper to a page, keeping its round storage for
// reuse: bus receives the wrapper's DOM events; reg maps bidder codes to
// endpoints. The zero Wrapper is ready for its first Reset.
func (w *Wrapper) Reset(env Env, bus *events.Bus, reg *partners.Registry, cfg Config) {
	w.env, w.bus, w.reg, w.cfg = env, bus, reg, cfg
	w.traceSrc, _ = env.(obs.TraceSource)
	w.auctionSeq = 0
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
	w.result = Result{Site: w.cfg.Site, Units: w.result.Units[:0], Bidders: w.result.Bidders[:0]}
	round := &w.round
	*round = roundState{wrapper: w, result: &w.result, started: start, done: done}
	w.queries.Reset()
	w.collectBidders()
	ids := w.roundIDs(start)

	// Per-unit auction bookkeeping + events.
	n := len(w.cfg.AdUnits)
	w.units = slices.Grow(w.units[:0], n)[:n]
	for i, u := range w.cfg.AdUnits {
		aid := w.roundID(ids, i)
		uo := &w.units[i]
		*uo = UnitOutcome{AuctionID: aid, AdUnit: u.Code, Start: start, Bids: uo.Bids[:0]}
		w.result.Units = append(w.result.Units, uo)
		w.emit(events.Event{
			Type: events.AuctionInit, Time: start, AuctionID: aid,
			AdUnit: u.Code, Library: "prebid.js",
		})
	}
	w.emit(events.Event{Type: events.RequestBids, Time: start, Library: "prebid.js"})

	if len(w.bidders) == 0 {
		// Nothing to do: go straight to the ad server (house/direct only).
		round.finalizeAuction()
		return
	}

	w.layoutFormats()
	w.sends = slices.Grow(w.sends[:0], len(w.bidders))
	timeout := w.cfg.Timeout()
	for i, bidder := range w.bidders {
		w.sendBidRequest(round, bidder, w.roundID(ids, n+i), timeout)
	}

	if w.cfg.BadWrapper {
		// Misconfigured wrapper: contact the ad server right away; every
		// bid response will arrive after finalization and count late.
		w.env.AfterCall(0, finalizeCall, round)
	} else {
		w.env.AfterCall(timeout, finalizeCall, round)
	}
}

// collectBidders gathers the distinct bidder codes across ad units, in
// first-seen order. Configs list at most a couple dozen bidders, so the
// dedupe is a linear scan of the output instead of a throwaway set.
func (w *Wrapper) collectBidders() {
	out := w.bidders[:0]
	for _, u := range w.cfg.AdUnits {
		for _, b := range u.Bidders {
			if !slices.Contains(out, b) {
				out = append(out, b)
			}
		}
	}
	w.bidders = out
}

// roundIDs writes the round's IDs into one string, which it returns:
// each ad unit's auction ID "<site>-a<N>", numbered on from the page's
// earlier rounds, then each bidder's bid-request ID
// "<site>-<bidder>-<unixnano>", in the order of w.bidders. roundID
// slices them out; the events, outcomes, bids and bid requests that
// carry them share the string.
func (w *Wrapper) roundIDs(now time.Time) string {
	b, ends := w.idBuf[:0], w.idEnds[:0]
	for range w.cfg.AdUnits {
		w.auctionSeq++
		b = append(b, w.cfg.Site...)
		b = append(b, "-a"...)
		b = strconv.AppendInt(b, int64(w.auctionSeq), 10)
		ends = append(ends, len(b))
	}
	nano := now.UnixNano()
	for _, bidder := range w.bidders {
		b = append(b, w.cfg.Site...)
		b = append(b, '-')
		b = append(b, bidder...)
		b = append(b, '-')
		b = strconv.AppendInt(b, nano, 10)
		ends = append(ends, len(b))
	}
	w.idBuf, w.idEnds = b, ends
	return string(b)
}

// roundID returns the k-th ID of ids, the string roundIDs returned.
func (w *Wrapper) roundID(ids string, k int) string {
	lo := 0
	if k > 0 {
		lo = w.idEnds[k-1]
	}
	return ids[lo:w.idEnds[k]]
}

// layoutFormats writes every ad unit's formats, in config order, into
// one array; each bidder's impression of a unit shares the unit's part
// of it read-only (sendBidRequest).
func (w *Wrapper) layoutFormats() {
	total := 0
	for _, u := range w.cfg.AdUnits {
		total += len(u.Sizes)
	}
	if w.formats == nil || cap(w.formats) < total {
		// Never nil, so a unit without sizes gets an empty list, as
		// the encoder's "format":[] requires.
		w.formats = make([]rtb.Format, total)
	}
	w.formats = w.formats[:total]
	i := 0
	for _, u := range w.cfg.AdUnits {
		for _, s := range u.Sizes {
			w.formats[i] = rtb.Format{W: s.W, H: s.H}
			i++
		}
	}
}

// roundState carries one auction round across async callbacks.
type roundState struct {
	wrapper        *Wrapper
	result         *Result
	started        time.Time // auction open (trace span anchor)
	adServerSent   time.Time // ad-server request issued (trace span anchor)
	pending        int       // bidders not yet responded (bidSend.pending)
	finalized      bool
	responded      int
	rendersPending int
	done           func(*Result)
	doneSent       bool
}

// unit returns the outcome of the last ad unit with code, or nil.
func (r *roundState) unit(code string) *UnitOutcome {
	units := r.wrapper.units
	for i := len(units) - 1; i >= 0; i-- {
		if units[i].AdUnit == code {
			return &units[i]
		}
	}
	return nil
}

func finalizeCall(a any) { a.(*roundState).finalizeAuction() }

// bidSend is one bidder's request within a round: the payload and its
// encoded length, reused by retransmissions, and the state the response
// callback needs. The payload is the body of every attempt's request,
// and stays as it is until the next RequestBids or Reset: as long as
// the page's requests, since a page runs one round.
type bidSend struct {
	round   *roundState
	idx     int // index in result.Bidders
	profile *partners.Profile
	payload rtb.BidRequest
	bodyLen int
	attempt int
	pending bool // no final response yet
}

// sendBidRequest issues one bidder's POST, whose bid-request ID is id,
// covering every ad unit that lists the bidder.
func (w *Wrapper) sendBidRequest(round *roundState, bidder, id string, timeout time.Duration) {
	profile, ok := w.reg.BySlug(bidder)
	if !ok {
		// Unknown adapter: prebid logs and skips. Nothing hits the wire.
		return
	}
	w.sends = w.sends[:len(w.sends)+1]
	sd := &w.sends[len(w.sends)-1]
	imps := sd.payload.Imp[:0]
	off := 0
	for _, u := range w.cfg.AdUnits {
		formats := w.formats[off : off+len(u.Sizes) : off+len(u.Sizes)]
		off += len(u.Sizes)
		if !slices.Contains(u.Bidders, bidder) {
			continue
		}
		imps = append(imps, rtb.Impression{
			ID:       u.Code,
			Banner:   rtb.Banner{Format: formats},
			FloorCPM: w.cfg.FloorCPM,
			TagID:    u.Code,
		})
	}
	sd.payload.Imp = imps // kept for the next round's reuse either way
	if len(imps) == 0 {
		w.sends = w.sends[:len(w.sends)-1]
		return
	}

	now := w.env.Now()
	if round.result.FirstBidRequest.IsZero() {
		round.result.FirstBidRequest = now
	}
	sd.payload = rtb.BidRequest{
		ID:   id,
		Imp:  imps,
		Site: rtb.Site{Domain: w.cfg.Site, Page: w.cfg.Page},
		TMax: int(timeout / time.Millisecond),
		Ext:  profile.BidRequestExt(),
	}
	bodyLen, err := sd.payload.EncodedLen()
	if err != nil {
		w.sends = w.sends[:len(w.sends)-1]
		return
	}

	for i := range imps {
		code := imps[i].ID
		// The bidder already rides the event's Bidder field; the former
		// Params copy duplicated it at one map allocation per unit.
		w.emit(events.Event{
			Type: events.BidRequested, Time: now, AuctionID: round.unit(code).AuctionID,
			AdUnit: code, Bidder: bidder, Library: "prebid.js",
		})
	}

	// The bidder's bid list reuses the storage of the result it replaces.
	brs := round.result.Bidders
	var bids []hb.Bid
	if n := len(brs); n < cap(brs) {
		bids = brs[:n+1][n].Bids[:0]
	}
	round.result.Bidders = append(brs, BidderResult{Bidder: bidder, Requested: now, Bids: bids})
	sd.round, sd.idx, sd.profile, sd.bodyLen, sd.attempt = round, len(round.result.Bidders)-1, profile, bodyLen, 0
	sd.pending = true
	round.pending++
	w.dispatchBid(sd)
}

// dispatchBid issues the current attempt of a bidder's bid POST (the
// same body every time; BidPost tags retransmissions retry=N). A retry
// re-emits no BidRequested event: the auction asked once.
func (w *Wrapper) dispatchBid(sd *bidSend) {
	req := BidPost(w.env.NewRequest(), sd.profile, &sd.payload, sd.bodyLen, sd.attempt, w.env.Now())
	w.env.FetchCall(req, bidResponseCall, sd)
}

func bidResponseCall(resp *webreq.Response, a any) {
	sd := a.(*bidSend)
	sd.round.wrapper.onBidResponse(sd, resp)
}

// bidRetryCall retransmits after the backoff.
func bidRetryCall(a any) {
	sd := a.(*bidSend)
	sd.attempt++
	sd.round.wrapper.dispatchBid(sd)
}

// onBidResponse handles one bidder's HTTP response (possibly after the
// deadline, in which case the bids are recorded as late).
func (w *Wrapper) onBidResponse(sd *bidSend, resp *webreq.Response) {
	round := sd.round
	if resp.Err != "" && sd.attempt < MaxBidRetries && !round.finalized {
		// Transport failure with retry budget left: back off and
		// retransmit instead of conceding the bidder. The bidder stays
		// pending, so early finalization keeps waiting for the retry
		// outcome (bounded by the wrapper timeout either way).
		round.result.Bidders[sd.idx].Retries++
		w.env.AfterCall(RetryBackoffBase<<sd.attempt, bidRetryCall, sd)
		return
	}

	now := w.env.Now()
	br := &round.result.Bidders[sd.idx]
	bidder := br.Bidder
	br.Responded = now
	br.Latency = now.Sub(br.Requested)
	br.Late = round.finalized
	round.responded++
	if sd.pending {
		sd.pending = false
		round.pending--
	}

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
	parsed := &w.decoded
	parsed.SeatBid = w.seats
	err := rtb.DecodeBidResponse(resp.Body, parsed)
	if parsed.SeatBid != nil {
		w.seats = parsed.SeatBid
	}
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
			uo := round.unit(sb.ImpID)
			if uo == nil {
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
				Params: w.queries.Add(
					urlkit.Param{Key: hb.KeyBidder, Value: bidder},
					urlkit.Param{Key: hb.KeySize, Value: bid.Size.String()},
					urlkit.Param{Key: "late", Value: strconv.FormatBool(br.Late)},
				),
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
	if !round.finalized && round.pending == 0 {
		round.finalizeAuction()
	}
}

func (w *Wrapper) emit(e events.Event) {
	if w.bus != nil {
		w.bus.Emit(e)
	}
}
