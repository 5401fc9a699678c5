package prebid

import (
	"slices"
	"strconv"
	"strings"

	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/obs"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// finalizeAuction closes the bidding phase: timeout events for pending
// bidders, auctionEnd per unit, winner selection, and the ad-server call.
// Responses that arrive after this point are late by definition.
func (r *roundState) finalizeAuction() {
	if r.finalized {
		return
	}
	r.finalized = true
	w := r.wrapper
	now := w.env.Now()

	vt := w.vt()
	if vt.Enabled() {
		vt.Span(obs.TrackAuction, "auction", r.started, now, obs.SpanOpts{
			Detail: w.cfg.Site,
		})
	}
	// A bidTimeout event, and a trace instant, for each bidder still
	// pending at the deadline, in request order: subscribers and trace
	// bytes see the same sequence on every run.
	for i := range r.result.Bidders {
		bidder := r.result.Bidders[i].Bidder
		if !w.sends[i].pending {
			continue
		}
		w.emit(events.Event{
			Type: events.BidTimeout, Time: now, Bidder: bidder, Library: "prebid.js",
		})
		if vt.Enabled() {
			vt.Instant(obs.TrackBidderPrefix+bidder, "timeout", now, "")
		}
	}

	// Per-unit auctionEnd + provisional (client-side) winner selection:
	// highest on-time USD CPM; ties break to the earliest response.
	for _, u := range w.cfg.AdUnits {
		uo := r.unit(u.Code)
		uo.End = now
		w.emit(events.Event{
			Type: events.AuctionEnd, Time: now, AuctionID: uo.AuctionID,
			AdUnit: u.Code, Library: "prebid.js",
			Params: w.queries.Add(urlkit.Param{Key: "bids", Value: strconv.Itoa(len(uo.Bids))}),
		})
		uo.Winner = pickWinner(uo.Bids)
	}

	r.callAdServer()
}

// pickWinner returns the best on-time bid or nil.
func pickWinner(bids []hb.Bid) *hb.Bid {
	var best *hb.Bid
	for i := range bids {
		b := &bids[i]
		if b.Late {
			continue
		}
		if best == nil || b.USDCPM() > best.USDCPM() {
			best = b
		}
	}
	return best
}

// callAdServer pushes targeting for every unit to the publisher ad server
// in one request (like a single GPT page request with per-slot key-values)
// and dispatches rendering from the response.
func (r *roundState) callAdServer() {
	w := r.wrapper
	now := w.env.Now()
	r.adServerSent = now

	// The time is written into the URL alone; the query reads it there.
	params := r.adServerQuery()
	var tBuf [20]byte
	req := w.env.NewRequest()
	req.URL = urlkit.WithLastValue(w.cfg.AdServerURL, params, strconv.AppendInt(tBuf[:0], now.UnixMilli(), 10))
	req.Method = webreq.GET
	req.Kind = webreq.KindXHR
	req.Sent = now
	if !strings.Contains(w.cfg.AdServerURL, "?") {
		// The query is exactly the one we just encoded: hand it to the
		// request so no hop (network, ad server, detector) re-parses it.
		req.PrefillParams(params)
	}
	w.emit(events.Event{
		Type: events.SetTargeting, Time: now, Library: "prebid.js",
		Params: params,
	})
	w.env.FetchCall(req, adServerResponseCall, r)
}

func adServerResponseCall(resp *webreq.Response, a any) { a.(*roundState).onAdServerResponse(resp) }

// adServerQuery builds the ad-server request's query: the site, the
// time, the slot specs and, for every unit with a winner, its targeting,
// scoped per slot the way GPT encodes per-slot targeting, and flat as
// well, so simple parsers (and the detector's Server-Side heuristics)
// see it; with send-all-bids, also every on-time bid's price bucket. It
// is the query of a map assigned in that order — a flat key keeps the
// first unit's value, any other key its last value — built in scratch,
// sorted once and copied into the round's storage at its final length.
// The time "t" sorts after every other key (targeting keys begin "hb_"),
// so it is the last pair; its value is left for the URL to write
// (urlkit.WithLastValue).
func (r *roundState) adServerQuery() urlkit.Query {
	w := r.wrapper
	var scratch [48]urlkit.Param
	q := append(scratch[:0], urlkit.Param{Key: "site", Value: w.cfg.Site}, urlkit.Param{Key: "t"})
	// Flat keys never collide with the per-slot ("key.slot"), send-all
	// ("hb_pb_bidder"), site, t or slots keys, so first-wins among the
	// flat keys alone is first-wins in the whole query.
	var flatBuf, tBuf [8]urlkit.Param
	flat := flatBuf[:0]
	specLen := 0
	for _, u := range w.cfg.AdUnits {
		specLen += len(u.Code) + len(u.PrimarySize().String()) + 2
		uo := r.unit(u.Code)
		if uo.Winner != nil {
			t := hb.AppendTargeting(tBuf[:0], *uo.Winner)
			keys := slotScopedKeys(t, u.Code)
			for _, p := range t {
				k := keys[:len(p.Key)+1+len(u.Code)]
				keys = keys[len(k):]
				q = append(q, urlkit.Param{Key: k, Value: p.Value})
				if !hasKey(flat, p.Key) {
					flat = append(flat, p)
				}
			}
		}
		if w.cfg.SendAllBids {
			for _, b := range uo.Bids {
				if !b.Late {
					q = append(q, urlkit.Param{Key: hb.KeyPriceBuck + "_" + b.Bidder, Value: hb.PriceBucket(b.USDCPM())})
				}
			}
		}
	}
	var slots strings.Builder
	slots.Grow(specLen)
	for i, u := range w.cfg.AdUnits {
		if i > 0 {
			slots.WriteByte(',')
		}
		slots.WriteString(u.Code)
		slots.WriteByte('|')
		slots.WriteString(u.PrimarySize().String())
	}
	q = append(q, flat...)
	q = append(q, urlkit.Param{Key: "slots", Value: slots.String()})
	return w.queries.Add(urlkit.SortQuery(q)...)
}

// hasKey reports whether q, in any order, has key k.
func hasKey(q urlkit.Query, k string) bool {
	for _, p := range q {
		if p.Key == k {
			return true
		}
	}
	return false
}

// slotScopedKeys returns the per-slot forms "key.code" of t's keys,
// concatenated in one string (one allocation for the whole unit).
func slotScopedKeys(t urlkit.Query, code string) string {
	n := 0
	for _, p := range t {
		n += len(p.Key) + 1 + len(code)
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range t {
		b.WriteString(p.Key)
		b.WriteByte('.')
		b.WriteString(code)
	}
	return b.String()
}

// onAdServerResponse records the end of the HB round and triggers
// creative rendering per slot.
func (r *roundState) onAdServerResponse(resp *webreq.Response) {
	w := r.wrapper
	now := w.env.Now()
	r.result.AdServerResponded = now

	if vt := w.vt(); vt.Enabled() {
		detail := ""
		if resp != nil && resp.Err != "" {
			detail = resp.Err
		}
		vt.Span(obs.TrackAdServer, "adserver", r.adServerSent, now, obs.SpanOpts{Detail: detail})
	}

	body := ""
	if resp != nil && resp.OK() {
		body = resp.Body
	}
	// At most one render per unit: sized before any is handed out, so
	// the render calls never move.
	w.renders = slices.Grow(w.renders[:0], len(w.cfg.AdUnits))
	for i, u := range w.cfg.AdUnits {
		uo := r.unit(u.Code)
		uo.AdServerLatency = now.Sub(uo.End)
		d := slotDecision(body, u.Code)
		uo.Channel = d.Channel
		if d.Channel == "hb" && uo.Winner != nil {
			w.emit(events.Event{
				Type: events.BidWon, Time: now, AuctionID: uo.AuctionID,
				AdUnit: u.Code, Bidder: uo.Winner.Bidder,
				CPM: uo.Winner.USDCPM(), Size: uo.Winner.Size,
				Library: "prebid.js",
				Params: w.queries.Add(
					urlkit.Param{Key: hb.KeyBidder, Value: uo.Winner.Bidder},
					urlkit.Param{Key: hb.KeyPriceBuck, Value: hb.PriceBucket(uo.Winner.USDCPM())},
				),
			})
		}
		r.render(i, uo, d)
	}
	r.maybeDone()
}

// slotDecision returns the ad server's decision for one slot: the last
// line of the body (hb.SlotLine) naming the slot, or channel "unfilled"
// when none does. Malformed lines are skipped — pages must tolerate
// garbage.
func slotDecision(body, code string) hb.SlotLine {
	d := hb.SlotLine{Channel: "unfilled"}
	sc := hb.ScanSlotLines(body)
	for l, ok := sc.Next(); ok; l, ok = sc.Next() {
		if l.Slot == code {
			d = l
		}
	}
	return d
}

// renderCall is one slot's creative fetch: the ad unit (its index in
// the config), its outcome and the ad server's decision.
type renderCall struct {
	round *roundState
	unit  int
	uo    *UnitOutcome
	d     hb.SlotLine
}

// render fetches the creative for one slot and fires the render events,
// including the winner-notification beacon for HB wins (protocol Step 4).
func (r *roundState) render(unit int, uo *UnitOutcome, d hb.SlotLine) {
	w := r.wrapper
	if d.CreativeURL == "" {
		// Nothing to render (unfilled); the slot stays empty.
		uo.Rendered = false
		return
	}
	r.rendersPending++
	w.renders = append(w.renders, renderCall{round: r, unit: unit, uo: uo, d: d})
	req := w.env.NewRequest()
	req.URL = d.CreativeURL
	req.Method = webreq.GET
	req.Kind = webreq.KindCreative
	req.Sent = w.env.Now()
	w.env.FetchCall(req, creativeCall, &w.renders[len(w.renders)-1])
}

func creativeCall(resp *webreq.Response, a any) { a.(*renderCall).onCreative(resp) }

// ignoreResponse is the callback of a fetch nobody waits for.
func ignoreResponse(*webreq.Response, any) {}

func (rc *renderCall) onCreative(resp *webreq.Response) {
	r, uo, d := rc.round, rc.uo, rc.d
	w := r.wrapper
	u := &w.cfg.AdUnits[rc.unit]
	now := w.env.Now()
	r.rendersPending--
	if d.Fails || resp.Err != "" || !resp.OK() {
		uo.RenderFailed = true
		w.emit(events.Event{
			Type: events.AdRenderFailed, Time: now, AuctionID: uo.AuctionID,
			AdUnit: u.Code, Size: u.PrimarySize(), Library: "prebid.js",
		})
		r.maybeDone()
		return
	}
	uo.Rendered = true
	w.emit(events.Event{
		Type: events.SlotRenderEnded, Time: now, AuctionID: uo.AuctionID,
		AdUnit: u.Code, Size: u.PrimarySize(), Library: "gpt.js",
		Params: w.queries.Add(urlkit.Param{Key: "channel", Value: d.Channel}),
	})
	if d.Channel == "hb" && uo.Winner != nil {
		// Winner notification beacon with the charged price.
		req := w.env.NewRequest()
		req.URL = winNURL(bidderHost(w, uo.Winner.Bidder), uo.AuctionID,
			uo.Winner.Bidder, uo.Winner.USDCPM())
		req.Method = webreq.GET
		req.Kind = webreq.KindBeacon
		req.Sent = now
		w.env.FetchCall(req, ignoreResponse, nil)
	}
	r.maybeDone()
}

// maybeDone invokes the round's done callback once the ad server has
// answered and all renders settled.
func (r *roundState) maybeDone() {
	if r.doneSent || r.done == nil {
		return
	}
	if r.result.AdServerResponded.IsZero() || r.rendersPending > 0 {
		return
	}
	r.doneSent = true
	r.done(r.result)
}

// bidderHost resolves a bidder's endpoint host for beacons; unknown
// bidders map to a placeholder domain (the beacon still goes out, which
// is what the inspector cares about).
func bidderHost(w *Wrapper, bidder string) string {
	if p, ok := w.reg.BySlug(bidder); ok {
		return p.Host
	}
	return "unknown-partner.example"
}

// winNURL assembles the winner-notification URL
// "https://bid.<host>/win?auction=<aid>&hb_bidder=<bidder>&hb_price=<cpm>"
// (cpm fixed to 4 decimals, matching the %.4f wire form) without fmt.
func winNURL(host, auctionID, bidder string, cpm float64) string {
	b := make([]byte, 0, 64+len(host)+len(auctionID)+len(bidder))
	b = append(b, "https://bid."...)
	b = append(b, host...)
	b = append(b, "/win?auction="...)
	b = append(b, auctionID...)
	b = append(b, '&')
	b = append(b, hb.KeyBidder...)
	b = append(b, '=')
	b = append(b, bidder...)
	b = append(b, '&')
	b = append(b, hb.KeyPrice...)
	b = append(b, '=')
	b = strconv.AppendFloat(b, cpm, 'f', 4, 64)
	return string(b)
}
