package sitegen

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"headerbid/internal/adserver"
	"headerbid/internal/hb"
	"headerbid/internal/obs"
	"headerbid/internal/partners"
	"headerbid/internal/rng"
	"headerbid/internal/rtb"
	"headerbid/internal/simnet"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// CreativeHost serves ad markup; its URLs carry the hb_* parameters the
// detector mines on server-side responses.
const CreativeHost = "creatives.example"

// serverSeat is one partner connected to a hosted (server-side) auction.
// Weights reproduce the per-facet winner mix of Figure 11, where Rubicon
// and AppNexus lead every facet.
type serverSeat struct {
	Slug   string
	Weight float64
}

// partnerCurrency maps partners that quote in their home currency; the
// wrapper normalizes to USD (the paper reports all prices in USD CPM).
var partnerCurrency = map[string]hb.Currency{
	"adocean":         hb.EUR, // .pl
	"aduptech":        hb.EUR, // .de
	"yieldlab":        hb.EUR,
	"smartadserver":   hb.EUR,
	"widespace":       hb.EUR,
	"eplanning":       hb.EUR,
	"smilewanted":     hb.EUR,
	"adhese":          hb.EUR,
	"orbidder":        hb.EUR,
	"adform":          hb.EUR,
	"teads":           hb.EUR,
	"clickonometrics": hb.EUR,
	"yieldone":        hb.JPY, // platform-one.co.jp
	"adgeneration":    hb.JPY, // socdm.com
}

// currencyFor returns the quoting currency of a partner (USD default) and
// the divisor converting a USD amount into it.
func currencyFor(slug string) (hb.Currency, float64) {
	cur, ok := partnerCurrency[slug]
	if !ok {
		return hb.USD, 1
	}
	// ToUSD(1, cur) gives the USD value of one unit; dividing a USD
	// amount by it re-quotes the price in the partner's currency.
	rate, _ := hb.ToUSD(1, cur)
	return cur, rate
}

// cleanStateBidFactor scales every partner's bid propensity for the
// crawler's clean-state (no cookies, no profile) visits: the paper's
// Table 1 shows ~0.3 bids per auction precisely because "bidders may avoid
// bidding when they know nothing about the user" (§3.2).
const cleanStateBidFactor = 0.40

// hostedSeatFactor similarly depresses participation in hosted (s2s)
// auctions for unknown users.
const hostedSeatFactor = 0.30

var serverSeatPool = []serverSeat{
	{"rubicon", 30}, {"appnexus", 28}, {"ix", 14}, {"openx", 10},
	{"pubmatic", 8}, {"districtm", 6}, {"criteo", 6}, {"amazon", 5},
	{"oftmedia", 5}, {"brealtime", 4}, {"emx_digital", 4},
	{"smartadserver", 3}, {"aduptech", 3}, {"sovrn", 3}, {"livewrapped", 2},
}

// Ecosystem is the server side of the generated world: pure handler logic
// shared by the simulated network and the live HTTP network. All methods
// return (status, body, serviceTime); transports add their own latency
// around the service time.
//
// Ecosystem is safe for concurrent use (livenet serves from multiple
// goroutines); the simulated network is single-threaded anyway. e.mu
// guards the lazy stream/ad-server maps, the streams' draw state and
// the storage bodies are written in; handlers hold it while touching
// those, not across a bid request's decode.
type Ecosystem struct {
	World *World
	seed  int64

	// trace is the visit's span recorder (nil when untraced). Only the
	// crawler's single-threaded simnet path sets it — livenet serves
	// concurrently and must leave it nil, since VisitTrace is
	// single-goroutine. All emission sits behind Enabled (obsguard).
	trace *obs.VisitTrace

	mu sync.Mutex
	// streams and adServers are the lazily started per-purpose streams
	// and per-site ad servers. Their values come from pools that reset
	// (InstallVisit) rewinds rather than frees, so a pooled visit
	// binding restarts them in place.
	streams    map[streamKey]*rng.Stream
	adServers  map[adServerKey]*adserver.Server
	streamPool []*rng.Stream
	serverPool []*adserver.Server
	// strs holds what the handlers send, visit after visit (reset keeps
	// it): response bodies, and the prices and creative IDs written into
	// them. body is where an ad-server body is composed before it moves
	// into strs, as its prices go into strs on the way.
	strs urlkit.Strings
	body []byte
	// targeting is the slot targeting handleClientAdServer hands the ad
	// server, refilled slot after slot (adserver.Server.Decide only reads
	// it), under mu like the rest.
	targeting hb.Targeting
}

// streamKind names the purpose of an ecosystem stream; with a partner
// slug or a site domain it names the stream itself.
type streamKind uint8

const (
	streamBid streamKind = iota
	streamHosted
	streamGampad
	streamDoc
	streamPubsrv
	streamCreative
	streamCDN
)

// streamPrefix holds each kind's stream-name prefix, hashed: the stream
// of (kind, name) is rng.SplitStable(seed, prefix+name).
var streamPrefix = [...]rng.Name{
	streamBid:      rng.NameOf("eco/bid/"),
	streamHosted:   rng.NameOf("eco/hosted/"),
	streamGampad:   rng.NameOf("eco/gampad"),
	streamDoc:      rng.NameOf("eco/doc/"),
	streamPubsrv:   rng.NameOf("eco/pubsrv/"),
	streamCreative: rng.NameOf("eco/creative"),
	streamCDN:      rng.NameOf("eco/cdn"),
}

type streamKey struct {
	kind streamKind
	name string
}

// adServerKey names a site's ad server: its own (client facet) or its
// DFP network (hybrid facet).
type adServerKey struct {
	dfp    bool
	domain string
}

// SetTrace attaches the visit's span recorder so server-side decisions
// (partner bid choices, ad-server slot channels) land in the trace.
func (e *Ecosystem) SetTrace(t *obs.VisitTrace) { e.trace = t }

// vt returns the attached recorder (nil when untraced).
func (e *Ecosystem) vt() *obs.VisitTrace { return e.trace }

// NewEcosystem builds the handler state for a world, seeded by the world
// seed (a long-lived server like livenet keeps advancing these streams
// across every request it serves).
func NewEcosystem(w *World) *Ecosystem {
	return NewEcosystemSeed(w, w.Cfg.Seed)
}

// NewEcosystemSeed builds handler state with an explicit seed. Per-visit
// ecosystems (the crawler creates one per clean-slate visit) MUST pass a
// per-visit seed: otherwise every visit's partner streams restart at the
// same state, every site sees the identical "first draw" from each
// partner, and cross-site variance collapses.
func NewEcosystemSeed(w *World, seed int64) *Ecosystem {
	// Maps are created on first use: one Ecosystem exists per crawl
	// visit, and a visit only touches the hosts its site wires up.
	return &Ecosystem{World: w, seed: seed}
}

// reset rewinds the ecosystem for a new visit: every stream and ad
// server restarts on first use, in storage the previous visit used.
func (e *Ecosystem) reset(w *World, seed int64) {
	e.World = w
	e.seed = seed
	e.trace = nil
	clear(e.streams)
	clear(e.adServers)
	e.streamPool = e.streamPool[:0]
	e.serverPool = e.serverPool[:0]
}

// stream returns the named deterministic stream, starting it on first
// use at the state rng.SplitStable(seed, "eco/"+purpose+name) gives.
func (e *Ecosystem) stream(kind streamKind, name string) *rng.Stream {
	k := streamKey{kind, name}
	s, ok := e.streams[k]
	if !ok {
		if e.streams == nil {
			e.streams = make(map[streamKey]*rng.Stream, 8)
		}
		s = pooled(&e.streamPool)
		s.ReseedStable(e.seed, streamPrefix[kind].Append(name))
		e.streams[k] = s
	}
	return s
}

// adServerFor returns a site's ad server, started on first use from the
// world's memoized line-item book.
func (e *Ecosystem) adServerFor(dfp bool, domain string) *adserver.Server {
	k := adServerKey{dfp, domain}
	srv, ok := e.adServers[k]
	if !ok {
		if e.adServers == nil {
			e.adServers = make(map[adServerKey]*adserver.Server, 2)
		}
		srv = pooled(&e.serverPool)
		srv.Reset(e.World.adServerBook(dfp, domain))
		e.adServers[k] = srv
	}
	return srv
}

// pooled hands out the next value of a pool whose length counts the
// values in use: a value a previous visit used when one is left over
// (its capacity), a new one otherwise.
func pooled[T any](pool *[]*T) *T {
	p := *pool
	if len(p) < cap(p) {
		p = p[:len(p)+1]
		if p[len(p)-1] == nil {
			p[len(p)-1] = new(T)
		}
	} else {
		p = append(p, new(T))
	}
	*pool = p
	return p[len(p)-1]
}

// exchangeFor returns a partner's internal RTB exchange — shared across
// visits via the world cache, since exchange construction depends only
// on (world seed, profile) and Run is stateless over its stream.
func (e *Ecosystem) exchangeFor(p *partners.Profile) *rtb.Exchange {
	return e.World.ExchangeFor(p)
}

// ---------------------------------------------------------------------------
// Partner endpoints
// ---------------------------------------------------------------------------

// HandlePartner services any request landing on a partner's domain:
// client-side bid requests, hosted auctions, win beacons and sync pixels.
// Locking is per-endpoint: beacons and pixels touch no shared state and
// run lock-free, and handleBid takes e.mu after its decode, so
// livenet's concurrent bid traffic does not serialize the JSON decode
// of foreign bodies.
func (e *Ecosystem) HandlePartner(p *partners.Profile, req *webreq.Request) (int, string, time.Duration) {
	u := req.URL
	switch {
	case strings.Contains(u, "/hb/v1/bid"):
		return e.handleBid(p, req)
	case strings.Contains(u, "/ssp/auction"):
		return e.handleHosted(p, req)
	case strings.Contains(u, "/gampad/ads"):
		return e.handleGampad(p, req)
	case strings.Contains(u, "/win"), strings.Contains(u, "/pixel"):
		return 204, "", 2 * time.Millisecond
	default:
		return 200, "ok", 5 * time.Millisecond
	}
}

// bidScratch is the pooled working set of one handleBid call: the
// decode target for a request that carries no typed body (whose Imp/Ext
// backing arrays the codec reuses), the partner's internal auction
// results, the response under construction, and a one-element seat
// array so the single-seat response never allocates a SeatBid slice.
type bidScratch struct {
	req     rtb.BidRequest
	results []rtb.AuctionResult
	resp    rtb.BidResponse
	sb      [1]rtb.SeatBid
	bids    []rtb.SeatOne
}

var bidScratchPool = sync.Pool{New: func() any { return &bidScratch{} }}

// handleBid answers a prebid client-side bid request (one bidder, all ad
// units). Lateness is decided here: a partner that will miss the caller's
// TMax responds after the deadline, exactly how the browser experiences
// late bids. The decode works on pooled scratch outside e.mu; the
// RNG/auction section and the encode into e.strs hold it.
func (e *Ecosystem) handleBid(p *partners.Profile, req *webreq.Request) (int, string, time.Duration) {
	sc := bidScratchPool.Get().(*bidScratch)
	defer bidScratchPool.Put(sc)

	breq, err := bidRequestOf(req, &sc.req)
	if err != nil {
		return 400, `{"nbr":2}`, 10 * time.Millisecond
	}

	// Facet-dependent pricing: the handler looks the publisher up the way
	// a real partner recognizes inventory by domain.
	facet := hb.FacetClient
	if site, ok := e.World.SiteByDomain(breq.Site.Domain); ok {
		facet = site.Facet
	}
	cur, usdRate := currencyFor(p.Slug)
	bids := sc.bids[:0]

	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.stream(streamBid, p.Slug)

	// Service time: the partner's own latency plus internal auction work.
	service := p.SampleLatency(r)
	if r.Bool(p.LateProb) && breq.TMax > 0 {
		// This response will miss the wrapper deadline.
		over := time.Duration(100+r.Intn(2400)) * time.Millisecond
		service = time.Duration(breq.TMax)*time.Millisecond + over
	}

	ex := e.exchangeFor(p)
	results := ex.Run(sc.results[:0], breq, r)
	sc.results = results
	var extra time.Duration
	for _, res := range results {
		extra += res.Elapsed
	}
	service += extra

	for i := range breq.Imp {
		imp := &breq.Imp[i]
		if !r.Bool(p.BidProb * cleanStateBidFactor) {
			continue
		}
		size := hb.SizeMediumRectangle
		if len(imp.Banner.Format) > 0 {
			size = hb.Size{W: imp.Banner.Format[0].W, H: imp.Banner.Format[0].H}
		}
		cpm := p.SampleCPM(r) * SizePriceFactor(size) * FacetPriceFactor(facet)
		if res := results[i]; res.Winner != "" && res.ClearingCPM > 0 {
			// Internal auction informed the partner's bid: blend toward
			// the clearing price so internal demand matters.
			cpm = 0.5*cpm + 0.5*res.ClearingCPM*SizePriceFactor(size)
		}
		if cpm < imp.FloorCPM {
			continue
		}
		bids = append(bids, rtb.SeatOne{
			ImpID: imp.ID,
			Price: round4(cpm / usdRate), // quoted in the partner's currency
			W:     size.W,
			H:     size.H,
			CrID:  e.creativeID(p.Slug, r.Intn(1_000_000)),
		})
	}
	sc.bids = bids

	if vt := e.vt(); vt.Enabled() {
		detail := "bids=" + strconv.Itoa(len(bids))
		if breq.TMax > 0 && service > time.Duration(breq.TMax)*time.Millisecond {
			detail += " late"
		}
		vt.Instant(obs.TrackBidderPrefix+p.Slug, "partner-decision", req.Sent, detail)
	}

	resp := &sc.resp
	*resp = rtb.BidResponse{ID: breq.ID, Currency: string(cur)}
	if len(bids) > 0 {
		sc.sb[0] = rtb.SeatBid{Seat: p.Slug, Bid: bids}
		resp.SeatBid = sc.sb[:1]
	} else {
		resp.NBR = 8 // no-bid: unknown user
	}
	b, err := resp.AppendJSON(e.strs.Room(bidBodyRoom(resp)))
	if err != nil {
		return 500, `{}`, service
	}
	return 200, e.strs.Take(b), service
}

// bidBodyRoom bounds the encoded length of a response handleBid builds
// when none of its strings needs escaping: a longer one moves to an
// array of its own (urlkit.Strings.Take).
func bidBodyRoom(resp *rtb.BidResponse) int {
	n := 64 + len(resp.ID) + len(resp.Currency)
	for _, sb := range resp.SeatBid {
		n += 32 + len(sb.Seat)
		for _, b := range sb.Bid {
			n += 128 + len(b.ImpID) + len(b.CrID) + len(b.DealID)
		}
	}
	return n
}

// bidRequestOf returns the bid request req carries: the wrapper's typed
// body (webreq.Request.SetPayload), or else the body's bytes decoded
// into dst, as for every request that crossed a real socket. The result
// is read-only.
func bidRequestOf(req *webreq.Request, dst *rtb.BidRequest) (*rtb.BidRequest, error) {
	if v, ok := req.Payload().(*rtb.BidRequest); ok && v != nil {
		return v, nil
	}
	if err := rtb.UnmarshalBidRequest(req.Body(), dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// handleHosted answers a hosted (Server-Side HB) auction: the provider
// runs the whole auction among its connected seats and returns only the
// winning impressions, whose creative URLs expose hb_* parameters.
func (e *Ecosystem) handleHosted(p *partners.Profile, req *webreq.Request) (int, string, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.stream(streamHosted, p.Slug)
	params := req.Params()
	siteDomain := params.Get("site")
	site, _ := e.World.SiteByDomain(siteDomain)

	service := p.SampleLatency(r)
	body := e.body[:0]
	forEachSlotSpec(params.Get("slots"), func(code string, size hb.Size) {
		// Each hosted slot triggers its own seat auction at the provider
		// (Fig 20: more auctioned slots, higher latency).
		service += time.Duration(18+r.Intn(30)) * time.Millisecond

		winner, cpm := e.seatAuction(r, size, hb.FacetServer)
		floor := 0.005
		renderFail := 0.02
		if site != nil {
			floor = site.FloorCPM
			renderFail = site.RenderFailProb
		}
		channel := "house"
		sz := size.String()
		if winner != "" && cpm >= floor {
			channel = "hb"
			body = appendSlotLine(body, code, channel, urlkit.Query{
				{Key: "channel", Value: "hb"},
				{Key: hb.KeyBidder, Value: winner},
				{Key: hb.KeyPriceBuck, Value: hb.PriceBucket(cpm)},
				{Key: hb.KeyPrice, Value: e.price(cpm)},
				{Key: hb.KeySize, Value: sz},
				{Key: hb.KeySource, Value: "s2s"},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		} else {
			body = appendSlotLine(body, code, channel, urlkit.Query{
				{Key: "channel", Value: "house"},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		}
		if r.Bool(renderFail) {
			body = append(body, "|fail"...)
		}
		if vt := e.vt(); vt.Enabled() {
			vt.Instant(obs.TrackAdServer, "s2s-slot", req.Sent, code+"="+channel)
		}
	})
	return 200, e.takeBody(body), service
}

// seatAuction resolves one hosted-auction slot among the connected seats:
// first- and second-price among sampled seat bids.
func (e *Ecosystem) seatAuction(r *rng.Stream, size hb.Size, facet hb.Facet) (winner string, cpm float64) {
	var top, second float64
	for _, seat := range serverSeatPool {
		p, ok := e.World.Registry.BySlug(seat.Slug)
		if !ok {
			continue
		}
		// Seat participation scales with its pool weight, depressed for
		// clean-state users.
		participate := seat.Weight / 40
		if participate > 0.95 {
			participate = 0.95
		}
		if !r.Bool(participate * p.BidProb * 3 * hostedSeatFactor) {
			continue
		}
		price := p.SampleCPM(r) * SizePriceFactor(size) * FacetPriceFactor(facet)
		switch {
		case price > top:
			second = top
			top = price
			winner = seat.Slug
		case price > second:
			second = price
		}
	}
	if winner == "" {
		return "", 0
	}
	if second <= 0 {
		second = top * 0.8
	}
	return winner, round4(second + 0.0001)
}

// handleGampad is the DFP-style ad server used by Hybrid HB sites: it
// takes the wrapper's hb_* targeting, adds its own server-side demand,
// consults direct line items, and returns per-slot creative lines.
func (e *Ecosystem) handleGampad(p *partners.Profile, req *webreq.Request) (int, string, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.stream(streamGampad, "")
	params := req.Params()
	siteDomain := params.Get("site")
	site, _ := e.World.SiteByDomain(siteDomain)
	floor := 0.005
	renderFail := 0.02
	infra := 1.0
	if site != nil {
		floor = site.FloorCPM
		renderFail = site.RenderFailProb
		infra = site.InfraQuality
	}

	// DFP decisioning: base cost plus per-slot work, better for top sites.
	service := time.Duration(float64(120+r.Intn(120)) / infra * float64(time.Millisecond))

	srv := e.adServerFor(true, siteDomain)
	body := e.body[:0]
	forEachSlotSpec(params.Get("slots"), func(code string, size hb.Size) {
		service += time.Duration(float64(20+r.Intn(35))/infra) * time.Millisecond

		// Client-side HB candidate from per-slot targeting.
		clientBidder := params.Get(hb.KeyBidder + "." + code)
		clientCPM := 0.0
		if pb := params.Get(hb.KeyPriceBuck + "." + code); pb != "" {
			if f, err := strconv.ParseFloat(pb, 64); err == nil {
				clientCPM = f
			}
		}

		// Server-side candidate from DFP's exchange.
		ssBidder, ssCPM := e.seatAuction(r, size, hb.FacetHybrid)

		// Direct / house fallback via the line-item book (no targeting:
		// the client candidate is weighed here, not by the book).
		dec := srv.Decide(adserver.Request{Site: siteDomain, AdUnit: code, Size: size})

		channel := "house"
		sz := size.String()
		switch {
		case clientCPM >= floor && clientCPM >= ssCPM && clientBidder != "":
			channel = "hb"
			body = appendSlotLine(body, code, channel, urlkit.Query{
				{Key: "channel", Value: "hb"},
				{Key: hb.KeyBidder, Value: clientBidder},
				{Key: hb.KeyPriceBuck, Value: hb.PriceBucket(clientCPM)},
				{Key: hb.KeySize, Value: sz},
				{Key: hb.KeySource, Value: "client"},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		case ssCPM >= floor && ssBidder != "":
			channel = "hb"
			body = appendSlotLine(body, code, channel, urlkit.Query{
				{Key: "channel", Value: "hb"},
				{Key: hb.KeyBidder, Value: ssBidder},
				{Key: hb.KeyPriceBuck, Value: hb.PriceBucket(ssCPM)},
				{Key: hb.KeyPrice, Value: e.price(ssCPM)},
				{Key: hb.KeySize, Value: sz},
				{Key: hb.KeySource, Value: "s2s"},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		case dec.Channel == "direct":
			channel = "direct"
			body = appendSlotLine(body, code, channel, urlkit.Query{
				{Key: "channel", Value: "direct"},
				{Key: "li", Value: dec.LineItem},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		default:
			body = appendSlotLine(body, code, channel, urlkit.Query{
				{Key: "channel", Value: "house"},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		}
		if r.Bool(renderFail) {
			body = append(body, "|fail"...)
		}
		if vt := e.vt(); vt.Enabled() {
			vt.Instant(obs.TrackAdServer, "gampad-slot", req.Sent, code+"="+channel)
		}
	})
	_ = p
	return 200, e.takeBody(body), service
}

// ---------------------------------------------------------------------------
// Publisher endpoints
// ---------------------------------------------------------------------------

// HandleSite services a publisher domain: the document on www.<domain>
// and the client-facet ad server on adserver.<domain>.
func (e *Ecosystem) HandleSite(s *Site, req *webreq.Request) (int, string, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	host := req.Host()
	switch {
	case strings.HasPrefix(host, "adserver."):
		return e.handleClientAdServer(s, req)
	default:
		r := e.stream(streamDoc, s.Domain)
		ms := r.LogNormal(math.Log(90/s.InfraQuality), 0.5)
		return 200, e.World.PageHTML(s), time.Duration(ms * float64(time.Millisecond))
	}
}

// handleClientAdServer is the publisher's own ad server (Client-Side HB):
// it trusts the wrapper's targeting, applies the floor and the line-item
// book, and returns per-slot creative lines.
func (e *Ecosystem) handleClientAdServer(s *Site, req *webreq.Request) (int, string, time.Duration) {
	r := e.stream(streamPubsrv, s.Domain)
	params := req.Params()
	srv := e.adServerFor(false, s.Domain)

	service := time.Duration(float64(25+r.Intn(35))/s.InfraQuality) * time.Millisecond
	body := e.body[:0]
	if e.targeting == nil {
		e.targeting = hb.Targeting{}
	}
	t := e.targeting
	forEachSlotSpec(params.Get("slots"), func(code string, size hb.Size) {
		service += time.Duration(float64(12+r.Intn(20))/s.InfraQuality) * time.Millisecond

		clear(t)
		for _, p := range params {
			kl := urlkit.LowerASCII(p.Key)
			key, ok := slotKey(kl, code)
			if ok && hb.IsTargetingKey(key) && hb.FoldWins(params, p.Key, kl) {
				t[key] = p.Value
			}
		}
		dec := srv.Decide(adserver.Request{
			Site: s.Domain, AdUnit: code, Size: size, Targeting: t,
		})
		if vt := e.vt(); vt.Enabled() {
			vt.Instant(obs.TrackAdServer, "pub-slot", req.Sent, code+"="+dec.Channel)
		}

		sz := size.String()
		switch dec.Channel {
		case "hb":
			body = appendSlotLine(body, code, dec.Channel, urlkit.Query{
				{Key: "channel", Value: "hb"},
				{Key: hb.KeyBidder, Value: dec.Bidder},
				{Key: hb.KeyPriceBuck, Value: hb.PriceBucket(dec.CPM)},
				{Key: hb.KeySize, Value: sz},
				{Key: hb.KeySource, Value: "client"},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		case "unfilled":
			body = appendSlotLine(body, code, dec.Channel, nil)
			return
		default:
			body = appendSlotLine(body, code, dec.Channel, urlkit.Query{
				{Key: "channel", Value: dec.Channel},
				{Key: "li", Value: dec.LineItem},
				{Key: "size", Value: sz},
				{Key: "slot", Value: code},
			})
		}
		if r.Bool(s.RenderFailProb) {
			body = append(body, "|fail"...)
		}
	})
	return 200, e.takeBody(body), service
}

// HandleCreative serves ad markup.
func (e *Ecosystem) HandleCreative(req *webreq.Request) (int, string, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.stream(streamCreative, "")
	service := time.Duration(5+r.Intn(20)) * time.Millisecond
	return 200, `<div class="creative">ad</div>`, service
}

// HandleCDN serves static JS libraries.
func (e *Ecosystem) HandleCDN(req *webreq.Request) (int, string, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.stream(streamCDN, "")
	service := time.Duration(8+r.Intn(30)) * time.Millisecond
	return 200, "/* js library stub */", service
}

// slotKey splits a per-slot targeting key "<key>.<code>" into its key,
// reporting false when kl does not end in "."+code.
func slotKey(kl, code string) (string, bool) {
	n := len(kl) - len(code) - 1
	if n < 0 || kl[n] != '.' || kl[n+1:] != code {
		return "", false
	}
	return kl[:n], true
}

// takeBody moves an ad-server body composed in e.body into e.strs,
// keeps the buffer for the next body and returns the body.
func (e *Ecosystem) takeBody(body []byte) string {
	e.body = body[:0]
	return e.strs.Take(append(e.strs.Room(len(body)), body...))
}

// appendSlotLine starts a slot's line of an ad-server body (the
// hb.SlotLine wire shape): the slot, the channel and the creative URL
// carrying q, written in place on the creative host; a nil q leaves the
// URL empty. The caller appends "|fail" for a creative that will fail to
// render. Lines are separated by '\n'.
func appendSlotLine(body []byte, code, channel string, q urlkit.Query) []byte {
	if len(body) > 0 {
		body = append(body, '\n')
	}
	body = append(body, code...)
	body = append(body, '|')
	body = append(body, channel...)
	body = append(body, '|')
	if q != nil {
		body = urlkit.AppendQuery(body, "https://"+CreativeHost+"/render", q)
	}
	return body
}

func round4(x float64) float64 { return math.Round(x*10000) / 10000 }

// price renders a CPM with four decimals (the %.4f wire form) in
// e.strs.
func (e *Ecosystem) price(x float64) string {
	return e.strs.Take(strconv.AppendFloat(e.strs.Room(24), x, 'f', 4, 64))
}

// creativeID renders "<slug>-cr-<n>" without fmt, in e.strs.
func (e *Ecosystem) creativeID(slug string, n int) string {
	b := append(append(e.strs.Room(len(slug)+24), slug...), "-cr-"...)
	return e.strs.Take(strconv.AppendInt(b, int64(n), 10))
}

// forEachSlotSpec iterates a "code|WxH,code|WxH,..." slots parameter
// without allocating the intermediate slices strings.Split produced on
// every ad request; specs that are not exactly "code|size" with a valid
// size are skipped, exactly as before.
func forEachSlotSpec(s string, fn func(code string, size hb.Size)) {
	for s != "" {
		var spec string
		spec, s, _ = strings.Cut(s, ",")
		code, sizeStr, ok := strings.Cut(spec, "|")
		if !ok || strings.IndexByte(sizeStr, '|') >= 0 {
			continue
		}
		size, err := hb.ParseSize(sizeStr)
		if err != nil {
			continue
		}
		fn(code, size)
	}
}

// ---------------------------------------------------------------------------
// Simulated-network installation
// ---------------------------------------------------------------------------

// sharedTarget identifies what lives at one of the world's shared hosts
// (every partner endpoint, the creative host, the static CDNs). The set
// is identical for every visit of a world, so it is computed once per
// World as plain data; binding it to a visit's Ecosystem is a switch in
// visitDispatch rather than a closure per host per visit — the former
// visitResolver.Resolve closure was 5.6% of crawl allocations.
type sharedTarget struct {
	kind    uint8
	partner *partners.Profile // set for targetPartner
}

const (
	targetPartner uint8 = iota
	targetCreative
	targetCDN
)

// dispatch routes a request at this target through the given ecosystem.
func (t sharedTarget) dispatch(eco *Ecosystem, req *webreq.Request) (int, string, time.Duration) {
	switch t.kind {
	case targetPartner:
		return eco.HandlePartner(t.partner, req)
	case targetCreative:
		return eco.HandleCreative(req)
	default:
		return eco.HandleCDN(req)
	}
}

// sharedTargets returns the world's precomputed host→target table,
// keyed by registrable domain (the simnet host key). Built once, safe
// for concurrent use afterwards (read-only).
func (w *World) sharedTargets() map[string]sharedTarget {
	w.sharedOnce.Do(func() {
		m := make(map[string]sharedTarget, w.Registry.Len()+8)
		for _, p := range w.Registry.All() {
			m[urlkit.RegistrableDomain(p.Host)] = sharedTarget{kind: targetPartner, partner: p}
		}
		m[urlkit.RegistrableDomain(CreativeHost)] = sharedTarget{kind: targetCreative}
		for _, cdn := range []string{
			urlkit.Host(PrebidCDN), urlkit.Host(GPTCDN), urlkit.Host(PubfoodCDN),
			urlkit.Host(JQueryCDN), "analytics.static.example",
		} {
			m[urlkit.RegistrableDomain(cdn)] = sharedTarget{kind: targetCDN}
		}
		w.shared = m
	})
	return w.shared
}

// VisitBinding is the pooled per-visit wiring of a world onto a
// network: the visit's Ecosystem value plus the pre-bound dispatch
// state the closure-free handler path reads. The crawler keeps one per
// worker and re-binds it every visit through InstallVisit; nothing here
// allocates per visit (the ecosystem's lazy maps reuse their storage).
type VisitBinding struct {
	w       *World
	site    *Site
	siteKey string
	eco     Ecosystem
}

// ResolveCall implements simnet.CallResolver: the visited site and
// every shared host resolve to the same static dispatch function bound
// to this binding; everything else is dead DNS.
func (b *VisitBinding) ResolveCall(key string) (simnet.BoundHandler, bool) {
	if key == b.siteKey {
		return simnet.BoundHandler{Fn: visitDispatch, Arg: b}, true
	}
	if _, ok := b.w.sharedTargets()[key]; ok {
		return simnet.BoundHandler{Fn: visitDispatch, Arg: b}, true
	}
	return simnet.BoundHandler{}, false
}

// visitDispatch is the one static handler serving every host of a
// visit. The host key is re-derived from the request's cached
// registrable host, so a single (fn, binding) pair covers the site and
// all shared hosts without any per-host state.
func visitDispatch(req *webreq.Request, arg any) (int, string, time.Duration) {
	b := arg.(*VisitBinding)
	key := req.RegistrableHost()
	if key == b.siteKey {
		return b.eco.HandleSite(b.site, req)
	}
	if t, ok := b.w.sharedTargets()[key]; ok {
		return t.dispatch(&b.eco, req)
	}
	// Unreachable in practice: the network only dispatches hosts that
	// resolved, and ResolveCall admits exactly the keys above.
	return 502, "", 0
}

// InstallVisit wires one visit onto a network through a caller-owned
// (pooled) binding and returns the visit's ecosystem, which lives
// inside the binding. The previous visit's streams and ad servers are
// restarted in place when this visit first uses them.
func (w *World) InstallVisit(n *simnet.Network, s *Site, b *VisitBinding) *Ecosystem {
	b.w = w
	b.site = s
	b.siteKey = urlkit.RegistrableDomain(s.Domain)
	b.eco.reset(w, w.Cfg.Seed^n.Seed())
	n.SetCallResolver(b)
	return &b.eco
}
