// Package core implements HBDetector, the paper's contribution: a
// browser-side transparency tool that detects Header Bidding activity in
// real time by combining two observation channels (Figure 3):
//
//   - an HTML DOM event inspector — a content script subscribing to the
//     events HB libraries fire (auctionInit, bidResponse, auctionEnd,
//     bidWon, slotRenderEnded, ...), which no other ad protocol triggers;
//   - a WebRequest inspector — every request/response the page makes,
//     filtered against the known demand-partner list and the HB-specific
//     parameter vocabulary (hb_bidder, hb_pb, ...).
//
// From the combined signal the detector classifies the page's HB facet
// (client-side, server-side, hybrid), reconstructs auctions and bids with
// their prices and latencies, identifies late bids, and measures the total
// HB latency — everything the paper's analysis consumes.
//
// The detector observes; it never alters page traffic.
package core

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// BidObs is one observed bid.
type BidObs struct {
	Bidder  string
	CPM     float64 // USD CPM (0 when the price was not visible)
	Size    hb.Size
	Late    bool
	Latency time.Duration
	// Source is "client" for bids seen as bidResponse events, "s2s" for
	// winners mined from server-side response parameters.
	Source string
}

// AuctionObs is one reconstructed auction (one ad unit).
type AuctionObs struct {
	ID       string
	AdUnit   string
	Size     hb.Size
	Start    time.Time
	End      time.Time
	Bids     []BidObs
	Winner   *BidObs
	Rendered bool
	Failed   bool
}

// Observation is everything HBDetector learned about one page visit.
// Detector.Observation returns it in the detector's storage, valid until
// the detector's next Reattach, with everything it holds.
type Observation struct {
	URL    string
	Domain string

	// HB is the headline verdict.
	HB bool
	// Facet is the classified deployment style.
	Facet hb.Facet
	// Libraries lists the HB libraries whose events were seen.
	Libraries []string

	// PartnersSeen lists demand partners contacted via web requests
	// (registrable-domain match against the partner list), the signal
	// behind Figures 8-10.
	PartnersSeen []string
	// WinnersSeen lists partners that won auctions, including server-side
	// winners only visible in response parameters (Figure 11).
	WinnersSeen []string

	Auctions []AuctionObs

	// TotalHBLatency: first bid request to ad-server response for
	// client/hybrid; the hosted-auction round trip for server-side.
	TotalHBLatency time.Duration

	// PartnerLatency maps partner slug to observed bid-request latencies
	// for exchanges that concluded within the auction deadline.
	PartnerLatency map[string][]time.Duration
	// PartnerLateLatency holds the latencies of responses that missed the
	// wrapper deadline (they feed the late-bid analysis, not the partner
	// latency profiles).
	PartnerLateLatency map[string][]time.Duration

	// AdSlotsAuctioned counts slots offered for auction (which can exceed
	// the slots actually displayed — the multi-device oddity of §5.3).
	AdSlotsAuctioned int

	EventCount   int
	RequestCount int
	RenderFails  int

	// Degradation signals, all zero on a fault-free visit. PartnerErrors
	// counts transport-level bid-exchange failures by partner slug;
	// BidRetries counts bid requests tagged as wrapper retransmissions
	// (retry= parameter); BidsAbandoned counts bid requests that never
	// received any response — error included — within the page's life.
	PartnerErrors map[string]int
	BidRetries    int
	BidsAbandoned int

	// Traffic breaks the page's requests down by role — the raw material
	// of the §7.3 network-overhead discussion (HB's broadcast fan-out
	// roughly doubled the request volume ad infrastructure must absorb).
	Traffic TrafficCounts
}

// TrafficCounts categorizes a page's observed requests.
type TrafficCounts struct {
	BidRequests int // client-side bid POSTs to demand partners
	HostedCalls int // hosted (s2s) auction requests
	AdServer    int // ad-server exchanges
	Creatives   int // creative fetches
	Beacons     int // win notifications + sync pixels
	Scripts     int // library/script loads
	Other       int
}

// Detector is one page's HBDetector instance. Attach it before the page
// loads; call Observation after the page settles.
//
// All detector maps are lazy: they materialize on first write, so the
// majority of crawled pages — non-HB sites whose visits never produce an
// auction, a partner exchange or a render event — allocate no detector
// state at all beyond the struct itself. Reads of nil maps are safe in
// Go, and Observation serializes identically whether a map is nil or
// empty (proven by the crawler's eager-vs-lazy golden test).
type Detector struct {
	registry *partners.Registry
	page     *browser.Page

	// event-channel state: states holds this visit's auctions in
	// creation order, auctions indexes it by auction ID
	auctions    map[string]int
	states      []auctionState
	libs        map[string]bool
	eventCount  int
	renderFails int
	// render outcomes keyed by ad unit (events may precede auction wiring)
	rendered map[string]bool
	failed   map[string]bool
	sizes    map[string]hb.Size

	// request-channel state
	partnerSeen     map[string]bool
	winnerSeen      map[string]bool
	partnerLats     map[string][]time.Duration
	partnerLateLats map[string][]time.Duration
	timedOut        map[string]bool // bidders whose current round timed out
	bidReqFirst     time.Time
	adSrvResponded  time.Time
	adSrvIsPartner  bool
	hostedReq       time.Time
	hostedResp      time.Time
	hostedProvider  string
	hostedSlots     []slotSpec
	s2sWinners      []s2sWin
	requestCount    int
	hbParamSeen     bool
	traffic         TrafficCounts
	partnerErrs     map[string]int // lazy: transport failures only
	bidResponses    int            // /hb/v1/bid responses seen, errors included
	bidRetries      int            // bid requests carrying a retry= tag

	// pageReg caches the page URL's registrable domain (pageRegURL is the
	// URL it was computed for, so late-set page URLs still resolve).
	pageRegURL string
	pageReg    string

	// The hook funcs bound to this detector, made on the first attach
	// and reused by every Reattach.
	onEventFn    events.Listener
	onRequestFn  webreq.RequestHook
	onResponseFn webreq.ResponseHook

	// Storage kept across Reattach: each partner's latency series
	// storage from earlier visits (latStore for partnerLats,
	// lateLatStore for partnerLateLats), and Observation's result with
	// its sorted lists, auctions and bids.
	latStore     map[string][]time.Duration
	lateLatStore map[string][]time.Duration
	obs          Observation
	obsLists     []string
	obsAuctions  []AuctionObs
	obsBids      []BidObs
	// idBuf and idEnds are where hostedAuctionIDs writes the hosted
	// auctions' IDs before they become one string, and where each ID
	// ends in it.
	idBuf  []byte
	idEnds []int
}

// pageRegistrable returns the registrable domain of the page's own URL,
// parsed once per URL instead of per response.
func (d *Detector) pageRegistrable() string {
	if d.pageRegURL != d.page.URL {
		d.pageRegURL = d.page.URL
		d.pageReg = urlkit.RegistrableDomain(urlkit.Host(d.page.URL))
	}
	return d.pageReg
}

// slotSpec is one slot offered in a hosted-auction request.
type slotSpec struct {
	Code string
	Size hb.Size
}

// s2sWin is a server-side winner mined from response parameters, tied to
// the slot it filled.
type s2sWin struct {
	Bid  BidObs
	Slot string
}

// auctionState is one auction under reconstruction. Its obs.Bids storage
// is reused by the auction that takes its slot on a later visit, so
// Observation copies the bids out; obs.Winner stays nil, winner says
// which bid won.
type auctionState struct {
	obs     AuctionObs
	ended   bool
	endTime time.Time
	winner  int // 1 + index of the winning bid in obs.Bids; 0 for none
}

// Options selects the detector's observation channels. The paper argues
// (§3.1) that combining both channels is what removes false positives and
// negatives; disabling one reproduces the ablated single-method detectors
// for comparison.
type Options struct {
	// Events enables the DOM event inspector (method 2).
	Events bool
	// Requests enables the WebRequest inspector (method 3).
	Requests bool
}

// FullOptions is the paper's combined configuration.
func FullOptions() Options { return Options{Events: true, Requests: true} }

// Attach wires a detector to a page with both channels enabled (content
// script + webRequest hooks), the paper's configuration.
func Attach(page *browser.Page, reg *partners.Registry) *Detector {
	return AttachWithOptions(page, reg, FullOptions())
}

// EagerAttachForTest forces AttachWithOptions to materialize every
// detector map up front, reproducing the pre-lazy implementation. It
// exists solely for the golden test that proves lazy and eager detectors
// serialize byte-identical records; production code must leave it false.
var EagerAttachForTest = false

// AttachWithOptions wires a detector with selected channels. Detector
// state is allocated lazily on first write (see Detector).
func AttachWithOptions(page *browser.Page, reg *partners.Registry, opts Options) *Detector {
	d := new(Detector)
	d.Reattach(page, reg, opts)
	return d
}

// Reattach returns d to the state AttachWithOptions(page, reg, opts)
// produces, but keeps the storage of its maps and slices and its bound
// hook funcs, so re-attaching a pooled detector allocates nothing. The
// crawler keeps one detector per worker and reattaches it after
// rebinding the page. The previous attachment's Observation and
// everything it holds are this storage and are invalid afterwards:
// dataset.FromObservation copies everything it keeps.
func (d *Detector) Reattach(page *browser.Page, reg *partners.Registry, opts Options) {
	d.latStore = keepSeries(d.latStore, d.partnerLats)
	d.lateLatStore = keepSeries(d.lateLatStore, d.partnerLateLats)
	clear(d.auctions)
	clear(d.libs)
	clear(d.rendered)
	clear(d.failed)
	clear(d.sizes)
	clear(d.partnerSeen)
	clear(d.winnerSeen)
	clear(d.partnerLats)
	clear(d.partnerLateLats)
	clear(d.timedOut)
	clear(d.partnerErrs)
	clear(d.s2sWinners)
	*d = Detector{
		registry:        reg,
		page:            page,
		auctions:        d.auctions,
		states:          d.states[:0],
		libs:            d.libs,
		rendered:        d.rendered,
		failed:          d.failed,
		sizes:           d.sizes,
		partnerSeen:     d.partnerSeen,
		winnerSeen:      d.winnerSeen,
		partnerLats:     d.partnerLats,
		partnerLateLats: d.partnerLateLats,
		timedOut:        d.timedOut,
		partnerErrs:     d.partnerErrs,
		hostedSlots:     d.hostedSlots[:0],
		s2sWinners:      d.s2sWinners[:0],
		onEventFn:       d.onEventFn,
		onRequestFn:     d.onRequestFn,
		onResponseFn:    d.onResponseFn,
		latStore:        d.latStore,
		lateLatStore:    d.lateLatStore,
		obsLists:        d.obsLists,
		obsAuctions:     d.obsAuctions,
		obsBids:         d.obsBids,
		idBuf:           d.idBuf,
		idEnds:          d.idEnds,
	}
	if d.onEventFn == nil {
		d.onEventFn, d.onRequestFn, d.onResponseFn = d.onEvent, d.onRequest, d.onResponse
	}
	if EagerAttachForTest {
		d.auctions = orMake(d.auctions)
		d.libs = orMake(d.libs)
		d.rendered = orMake(d.rendered)
		d.failed = orMake(d.failed)
		d.sizes = orMake(d.sizes)
		d.partnerSeen = orMake(d.partnerSeen)
		d.winnerSeen = orMake(d.winnerSeen)
		d.partnerLats = orMake(d.partnerLats)
		d.partnerLateLats = orMake(d.partnerLateLats)
		d.timedOut = orMake(d.timedOut)
	}
	if opts.Events {
		page.Bus.SubscribeAll(d.onEventFn)
	}
	if opts.Requests {
		page.Inspector.OnRequest(d.onRequestFn)
		page.Inspector.OnResponse(d.onResponseFn)
	}
}

// orMake returns m, or a new empty map when m is nil.
func orMake[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return make(M)
	}
	return m
}

// ---------------------------------------------------------------------------
// DOM event channel
// ---------------------------------------------------------------------------

func (d *Detector) onEvent(e events.Event) {
	if !e.Type.Valid() {
		return
	}
	d.eventCount++
	if e.Library != "" {
		if d.libs == nil {
			d.libs = make(map[string]bool, 2)
		}
		d.libs[e.Library] = true
	}
	switch e.Type {
	case events.AuctionInit:
		st := d.auction(e.AuctionID)
		st.obs.AdUnit = e.AdUnit
		st.obs.Start = e.Time
	case events.BidResponse:
		st := d.auction(e.AuctionID)
		bid := BidObs{
			Bidder: e.Bidder,
			CPM:    e.CPM,
			Size:   e.Size,
			Source: "client",
		}
		// Lateness is the detector's own judgement: a response event
		// after the auction ended missed the deadline.
		if st.ended && e.Time.After(st.endTime) {
			bid.Late = true
		}
		if lat, ok := d.lastPartnerLatency(e.Bidder, bid.Late); ok {
			bid.Latency = lat
		}
		st.obs.Bids = append(st.obs.Bids, bid)
	case events.BidTimeout:
		// The bidder missed the wrapper deadline; its (eventual) response
		// latency belongs in the late-bid analysis, not the partner
		// latency profile (Figures 14/16 summarize concluded exchanges).
		if d.timedOut == nil {
			d.timedOut = make(map[string]bool, 2)
		}
		d.timedOut[e.Bidder] = true
	case events.AuctionEnd:
		st := d.auction(e.AuctionID)
		st.ended = true
		st.endTime = e.Time
		st.obs.End = e.Time
	case events.BidWon:
		st := d.auction(e.AuctionID)
		for i := range st.obs.Bids {
			if st.obs.Bids[i].Bidder == e.Bidder && !st.obs.Bids[i].Late {
				st.winner = i + 1
				break
			}
		}
		if st.winner == 0 {
			w := BidObs{Bidder: e.Bidder, CPM: e.CPM, Size: e.Size, Source: "client"}
			st.obs.Bids = append(st.obs.Bids, w)
			st.winner = len(st.obs.Bids)
		}
		d.markWinner(e.Bidder)
	case events.SlotRenderEnded:
		if d.rendered == nil {
			d.rendered = make(map[string]bool, 4)
		}
		d.rendered[e.AdUnit] = true
		if !e.Size.IsZero() {
			if d.sizes == nil {
				d.sizes = make(map[string]hb.Size, 4)
			}
			d.sizes[e.AdUnit] = e.Size
		}
		// Server-side winners surface in the creative parameters attached
		// to the render event.
		d.mineTargeting(e.Params, e.Time)
	case events.AdRenderFailed:
		d.renderFails++
		if d.failed == nil {
			d.failed = make(map[string]bool, 2)
		}
		d.failed[e.AdUnit] = true
	}
}

// auction returns the state of auction id, creating it on first use in
// the next slot of states, whose bid storage it reuses. The pointer is
// valid until the next call.
func (d *Detector) auction(id string) *auctionState {
	if i, ok := d.auctions[id]; ok {
		return &d.states[i]
	}
	if d.auctions == nil {
		d.auctions = make(map[string]int, 4)
	}
	d.auctions[id] = len(d.states)
	var bids []BidObs
	if n := len(d.states); n < cap(d.states) {
		bids = d.states[:n+1][n].obs.Bids[:0]
	}
	d.states = append(d.states, auctionState{obs: AuctionObs{ID: id, Bids: bids}})
	return &d.states[len(d.states)-1]
}

// markWinner records a winning bidder, materializing the set lazily.
func (d *Detector) markWinner(slug string) {
	if d.winnerSeen == nil {
		d.winnerSeen = make(map[string]bool, 2)
	}
	d.winnerSeen[slug] = true
}

// ---------------------------------------------------------------------------
// WebRequest channel
// ---------------------------------------------------------------------------

func (d *Detector) onRequest(req *webreq.Request) {
	d.requestCount++
	params := req.Params()
	d.countTraffic(req, params)

	// Known-partner matching. Only HB-flavored traffic marks a partner as
	// participating (the paper extracts partner counts from "the incoming
	// web requests that trigger corresponding HB events"); cookie-sync
	// pixels and generic tracking to the same domains do not.
	if p, ok := d.registry.ByDomain(req.RegistrableHost()); ok {
		if isHBEndpoint(req.URL) {
			if d.partnerSeen == nil {
				d.partnerSeen = make(map[string]bool, 4)
			}
			d.partnerSeen[p.Slug] = true
		}
		if strings.Contains(req.URL, "/ssp/auction") {
			d.hostedReq = req.Sent
			d.hostedProvider = p.Slug
			d.hostedSlots = appendSlotSpecs(d.hostedSlots[:0], params.Get("slots"))
		}
		if strings.Contains(req.URL, "/hb/v1/bid") {
			if d.bidReqFirst.IsZero() {
				d.bidReqFirst = req.Sent
			}
			if params.Get("retry") != "" {
				d.bidRetries++
			}
		}
		if strings.Contains(req.URL, "/gampad/") {
			d.adSrvIsPartner = true
		}
	}

	// HB parameter vocabulary in any request (creative fetches included).
	for _, p := range params {
		if hb.IsTargetingKey(p.Key) {
			d.hbParamSeen = true
			break
		}
	}
	// Server-side winner mining from creative requests.
	if strings.Contains(req.URL, "/render") {
		d.mineTargeting(params, req.Sent)
	}
}

func (d *Detector) onResponse(req *webreq.Request, resp *webreq.Response) {
	lat := resp.Received.Sub(req.Sent)
	if p, ok := d.registry.ByDomain(req.RegistrableHost()); ok {
		switch {
		case strings.Contains(req.URL, "/hb/v1/bid"):
			d.bidResponses++
			if resp.Err != "" {
				if d.partnerErrs == nil {
					d.partnerErrs = make(map[string]int, 2)
				}
				d.partnerErrs[p.Slug]++
			}
			if !resp.OK() {
				break // failed exchanges carry no usable latency sample
			}
			if d.timedOut[p.Slug] {
				if d.partnerLateLats == nil {
					d.partnerLateLats = make(map[string][]time.Duration, 2)
				}
				addLatency(d.partnerLateLats, d.lateLatStore, p.Slug, lat)
				delete(d.timedOut, p.Slug)
			} else {
				if d.partnerLats == nil {
					d.partnerLats = make(map[string][]time.Duration, 4)
				}
				addLatency(d.partnerLats, d.latStore, p.Slug, lat)
			}
		case strings.Contains(req.URL, "/ssp/auction"):
			if resp.OK() {
				d.hostedResp = resp.Received
			}
		case strings.Contains(req.URL, "/gampad/"):
			if resp.OK() {
				d.adSrvResponded = resp.Received
			}
		}
	}
	// The publisher's own ad server is recognized by shape, not by list:
	// a slots= request that either carries hb_* key-values or goes to the
	// page's first-party ad-server host (the no-bid rounds of a clean-
	// state crawl set no hb_* keys, but the exchange still closes the HB
	// round and bounds its latency).
	params := req.Params()
	if _, hasSlots := params.Lookup("slots"); hasSlots && !d.adSrvIsPartner && resp.OK() {
		pageReg := d.pageRegistrable()
		firstParty := pageReg != "" && req.RegistrableHost() == pageReg
		hasHBKey := false
		for _, p := range params {
			if hb.IsTargetingKey(stripSlotSuffix(p.Key)) {
				hasHBKey = true
				break
			}
		}
		if hasHBKey || firstParty {
			d.adSrvResponded = resp.Received
		}
	}
}

// isHBEndpoint reports whether a partner URL belongs to the HB protocol
// itself (bid requests, hosted auctions, partner-run ad servers, win
// notifications) rather than side-channel tracking.
func isHBEndpoint(url string) bool {
	return strings.Contains(url, "/hb/v1/bid") ||
		strings.Contains(url, "/ssp/auction") ||
		strings.Contains(url, "/gampad/") ||
		strings.Contains(url, "/win")
}

// countTraffic categorizes one request for the overhead analysis.
func (d *Detector) countTraffic(req *webreq.Request, params urlkit.Query) {
	switch {
	case strings.Contains(req.URL, "/hb/v1/bid"):
		d.traffic.BidRequests++
	case strings.Contains(req.URL, "/ssp/auction"):
		d.traffic.HostedCalls++
	case strings.Contains(req.URL, "/gampad/"):
		d.traffic.AdServer++
	case req.Kind == webreq.KindCreative || strings.Contains(req.URL, "/render"):
		d.traffic.Creatives++
	case req.Kind == webreq.KindBeacon ||
		strings.Contains(req.URL, "/win") || strings.Contains(req.URL, "/pixel"):
		d.traffic.Beacons++
	case req.Kind == webreq.KindScript:
		d.traffic.Scripts++
	default:
		if _, hasSlots := params.Lookup("slots"); hasSlots {
			d.traffic.AdServer++
		} else {
			d.traffic.Other++
		}
	}
}

// mineTargeting extracts server-side HB winners from hb_* parameters,
// read in place by hb.ScanTargeting.
func (d *Detector) mineTargeting(params urlkit.Query, at time.Time) {
	var bidder, partner, source, pb, price, size string
	var found, hasBidder, hasPB, hasPrice, hasSize bool
	ts := hb.ScanTargeting(params)
	for k, v, ok := ts.Next(); ok; k, v, ok = ts.Next() {
		found = true
		switch k {
		case hb.KeyBidder:
			bidder, hasBidder = v, true
		case hb.KeyPartner:
			partner = v
		case hb.KeySource:
			source = v
		case hb.KeyPriceBuck:
			pb, hasPB = v, true
		case hb.KeyPrice:
			price, hasPrice = v, true
		case hb.KeySize:
			size, hasSize = v, true
		}
	}
	if !found {
		return
	}
	d.hbParamSeen = true
	if !hasBidder {
		bidder = partner // the legacy key, as hb.Targeting.Bidder reads it
	}
	if bidder == "" {
		return
	}
	d.markWinner(bidder)
	if source != "s2s" {
		return
	}
	// The price bucket, else the raw price, as hb.Targeting.Price reads
	// them; an exact hb_price, spelled in lower case, wins over both.
	var cpm float64
	if f, err := strconv.ParseFloat(pb, 64); hasPB && err == nil {
		cpm = f
	} else if f, err := strconv.ParseFloat(price, 64); hasPrice && err == nil {
		cpm = f
	}
	if raw, ok := params.Lookup(hb.KeyPrice); ok {
		var f float64
		if _, err := sscanFloat(raw, &f); err == nil {
			cpm = f
		}
	}
	var sz hb.Size
	if hasSize {
		sz, _ = hb.ParseSize(size)
	}
	d.s2sWinners = append(d.s2sWinners, s2sWin{
		Bid:  BidObs{Bidder: bidder, CPM: cpm, Size: sz, Source: "s2s"},
		Slot: params.Get("slot"),
	})
}

// addLatency appends lat to slug's series in m. A series new to this
// visit starts in the storage store kept for slug from earlier visits.
func addLatency(m, store map[string][]time.Duration, slug string, lat time.Duration) {
	ls, ok := m[slug]
	if !ok {
		ls = store[slug][:0]
	}
	m[slug] = append(ls, lat)
}

// keepSeries hands a visit's latency series back to store, where the
// next visit's series of the same partners start, and returns store.
func keepSeries(store, m map[string][]time.Duration) map[string][]time.Duration {
	if len(m) > 0 && store == nil {
		store = make(map[string][]time.Duration, len(m))
	}
	for slug, ls := range m {
		store[slug] = ls
	}
	return store
}

// lastPartnerLatency returns the most recent observed bid latency for a
// partner (pairs the bidResponse event to its transport exchange). Late
// responses live in the separate late-latency series.
func (d *Detector) lastPartnerLatency(slug string, late bool) (time.Duration, bool) {
	ls := d.partnerLats[slug]
	if late && len(d.partnerLateLats[slug]) > 0 {
		ls = d.partnerLateLats[slug]
	}
	if len(ls) == 0 {
		return 0, false
	}
	return ls[len(ls)-1], true
}

// appendSlotSpecs appends the slots of a "code|size,code|size" spec list
// to dst; a spec without a parseable size keeps a zero size.
func appendSlotSpecs(dst []slotSpec, s string) []slotSpec {
	if s == "" {
		return dst
	}
	for more := true; more; {
		var spec string
		spec, s, more = strings.Cut(s, ",")
		code, rest, hasSize := strings.Cut(spec, "|")
		sp := slotSpec{Code: code}
		if hasSize {
			sizeStr, _, _ := strings.Cut(rest, "|")
			if sz, err := hb.ParseSize(sizeStr); err == nil {
				sp.Size = sz
			}
		}
		dst = append(dst, sp)
	}
	return dst
}

func stripSlotSuffix(k string) string {
	if i := strings.IndexByte(k, '.'); i > 0 {
		return k[:i]
	}
	return k
}

// sscanFloat parses a float; it mirrors fmt.Sscanf's (n, err) shape.
func sscanFloat(s string, out *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	*out = f
	return 1, nil
}

// ---------------------------------------------------------------------------
// Verdict
// ---------------------------------------------------------------------------

// Observation finalizes and returns what the detector learned. Call it
// after the page has settled; it is idempotent. The observation and
// everything it holds (its sorted lists, auctions, bids and maps) live
// in the detector's storage and are valid until the next Reattach, like
// the page they describe: a caller that keeps any of it copies it
// (dataset.FromObservation). All bids of all auctions share one backing
// array, each auction holding a full slice of it.
func (d *Detector) Observation() *Observation {
	lists := slices.Grow(d.obsLists[:0], len(d.libs)+len(d.partnerSeen)+len(d.winnerSeen))
	var libraries, partnersSeen, winnersSeen []string
	lists, libraries = appendSortedKeys(lists, d.libs)
	lists, partnersSeen = appendSortedKeys(lists, d.partnerSeen)
	lists, winnersSeen = appendSortedKeys(lists, d.winnerSeen)
	d.obsLists = lists
	o := &d.obs
	*o = Observation{
		URL:                d.page.URL,
		Domain:             d.pageRegistrable(),
		Libraries:          libraries,
		PartnersSeen:       partnersSeen,
		WinnersSeen:        winnersSeen,
		PartnerLatency:     d.partnerLats,
		PartnerLateLatency: d.partnerLateLats,
		EventCount:         d.eventCount,
		RequestCount:       d.requestCount,
		RenderFails:        d.renderFails,
		Traffic:            d.traffic,
		PartnerErrors:      d.partnerErrs,
		BidRetries:         d.bidRetries,
	}
	if n := d.traffic.BidRequests - d.bidResponses; n > 0 {
		o.BidsAbandoned = n
	}

	// Client-channel auctions are the event-channel states. Server-channel
	// auctions: every slot offered in the hosted request is an auction the
	// page ran remotely; slots whose responses carried an s2s winner get
	// that winner as their (only visible) bid. Hybrid pages attach their
	// server-side winners to the matching client auction as additional
	// (server-sourced) bids.
	clientAuctions := false
	nBids := 0
	for i := range d.states {
		st := &d.states[i]
		if len(st.obs.Bids) > 0 || !st.obs.Start.IsZero() {
			clientAuctions = true
		}
		nBids += len(st.obs.Bids)
	}
	hostedFlow := !d.hostedReq.IsZero()
	hosted := hostedFlow && !clientAuctions
	hybrid := !hosted && clientAuctions && len(d.s2sWinners) > 0
	nAuctions := len(d.states)
	switch {
	case hosted:
		nAuctions += len(d.hostedSlots)
		for _, sp := range d.hostedSlots {
			if d.lastS2SWin(sp.Code) != nil {
				nBids++
			}
		}
	case hybrid:
		for _, w := range d.s2sWinners {
			if d.s2sOwner(w.Slot) >= 0 {
				nBids++
			}
		}
	}
	// Grown to their final sizes up front: the auctions hold full
	// slices of bids, which must not move while they are appended.
	if nAuctions > 0 {
		o.Auctions = slices.Grow(d.obsAuctions[:0], nAuctions)
	}
	bids := slices.Grow(d.obsBids[:0], nBids)

	for i := range d.states {
		st := &d.states[i]
		a := st.obs
		if a.AdUnit != "" {
			a.Rendered = d.rendered[a.AdUnit]
			a.Failed = d.failed[a.AdUnit]
			if sz, ok := d.sizes[a.AdUnit]; ok && a.Size.IsZero() {
				a.Size = sz
			}
		}
		lo := len(bids)
		bids = append(bids, st.obs.Bids...)
		if hybrid {
			for _, w := range d.s2sWinners {
				if d.s2sOwner(w.Slot) == i {
					bids = append(bids, w.Bid)
				}
			}
		}
		a.Bids = nil
		if hi := len(bids); hi > lo {
			a.Bids = bids[lo:hi:hi]
			switch {
			case st.winner > 0:
				a.Winner = &a.Bids[st.winner-1]
			case hi-lo > len(st.obs.Bids):
				a.Winner = &a.Bids[len(st.obs.Bids)] // the first server-side winner
			}
		}
		o.Auctions = append(o.Auctions, a)
	}
	if hosted {
		ids, lo := d.hostedAuctionIDs(o.Domain, len(d.hostedSlots)), 0
		for i, sp := range d.hostedSlots {
			a := AuctionObs{
				ID:       ids[lo:d.idEnds[i]],
				AdUnit:   sp.Code,
				Size:     sp.Size,
				Start:    d.hostedReq,
				End:      d.hostedResp,
				Rendered: d.rendered[sp.Code],
				Failed:   d.failed[sp.Code],
			}
			lo = d.idEnds[i]
			if w := d.lastS2SWin(sp.Code); w != nil {
				bids = append(bids, w.Bid)
				a.Bids = bids[len(bids)-1 : len(bids) : len(bids)]
				a.Winner = &a.Bids[0]
			}
			o.Auctions = append(o.Auctions, a)
		}
	}

	if o.Auctions != nil {
		d.obsAuctions = o.Auctions
	}
	d.obsBids = bids

	// Slots auctioned: client auctions plus hosted slot specs.
	o.AdSlotsAuctioned = len(d.states)
	if hosted {
		o.AdSlotsAuctioned = len(d.hostedSlots)
	}

	// Facet classification (§4.2): transparent client-side auctions are
	// events with bid responses; a hosted single round trip with hb_*
	// response parameters is server-side; both together — or client
	// auctions pushed to a partner-run ad server — are hybrid.
	switch {
	case clientAuctions && (d.adSrvIsPartner || len(d.s2sWinners) > 0):
		o.HB = true
		o.Facet = hb.FacetHybrid
	case clientAuctions:
		o.HB = true
		o.Facet = hb.FacetClient
	case hostedFlow:
		// The hosted-auction request itself goes to a known partner's HB
		// endpoint — HB evidence even when no bid cleared the floor and
		// no hb_* parameter came back (detection method 3, §3.1).
		o.HB = true
		o.Facet = hb.FacetServer
	case d.hbParamSeen && len(o.PartnersSeen) > 0:
		o.HB = true
		o.Facet = hb.FacetUnknown
	}

	// Total HB latency.
	switch o.Facet {
	case hb.FacetClient, hb.FacetHybrid:
		if !d.bidReqFirst.IsZero() && !d.adSrvResponded.IsZero() {
			o.TotalHBLatency = d.adSrvResponded.Sub(d.bidReqFirst)
		}
	case hb.FacetServer:
		if !d.hostedReq.IsZero() && !d.hostedResp.IsZero() {
			o.TotalHBLatency = d.hostedResp.Sub(d.hostedReq)
		}
	}
	return o
}

// appendSortedKeys appends m's keys to dst, sorted, and returns dst and
// the keys as a full slice of it (nil for none).
func appendSortedKeys(dst []string, m map[string]bool) ([]string, []string) {
	if len(m) == 0 {
		return dst, nil
	}
	lo := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[lo:])
	return dst, dst[lo:len(dst):len(dst)]
}

// lastS2SWin returns the server-side winner mined last for slot, or nil.
func (d *Detector) lastS2SWin(slot string) *s2sWin {
	for i := len(d.s2sWinners) - 1; i >= 0; i-- {
		if d.s2sWinners[i].Slot == slot {
			return &d.s2sWinners[i]
		}
	}
	return nil
}

// s2sOwner returns the index of the client auction a hybrid page's
// server-side winner for slot attaches to, the last auction of that ad
// unit, or -1.
func (d *Detector) s2sOwner(slot string) int {
	for i := len(d.states) - 1; i >= 0; i-- {
		if d.states[i].obs.AdUnit == slot {
			return i
		}
	}
	return -1
}

// hostedAuctionIDs writes the IDs "<domain>-ss-1" … "<domain>-ss-<n>"
// of the page's n hosted auctions into one string, which the
// observation's auctions share, and returns it: the ID of auction i
// ends at d.idEnds[i].
func (d *Detector) hostedAuctionIDs(domain string, n int) string {
	b, ends := d.idBuf[:0], d.idEnds[:0]
	for i := 1; i <= n; i++ {
		b = append(b, domain...)
		b = append(b, "-ss-"...)
		b = strconv.AppendInt(b, int64(i), 10)
		ends = append(ends, len(b))
	}
	d.idBuf, d.idEnds = b, ends
	return string(b)
}
