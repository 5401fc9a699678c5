package prebid

import (
	"strconv"
	"strings"
	"time"

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
		if !r.pending[bidder] {
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
		uo := r.units[u.Code]
		uo.End = now
		w.emit(events.Event{
			Type: events.AuctionEnd, Time: now, AuctionID: uo.AuctionID,
			AdUnit: u.Code, Library: "prebid.js",
			Params: urlkit.Query{{Key: "bids", Value: strconv.Itoa(len(uo.Bids))}},
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

	params := urlkit.Query{
		{Key: "site", Value: w.cfg.Site},
		{Key: "t", Value: strconv.FormatInt(now.UnixMilli(), 10)},
	}
	var slotSpecs []string
	for _, u := range w.cfg.AdUnits {
		uo := r.units[u.Code]
		spec := u.Code + "|" + u.PrimarySize().String()
		if uo.Winner != nil {
			t := hb.TargetingFromBid(*uo.Winner)
			for _, p := range t {
				// Scope keys per slot the way GPT encodes per-slot targeting.
				params.Set(p.Key+"."+u.Code, p.Value)
			}
			// Also set the flat keys for the best slot so simple parsers
			// (and the detector's Server-Side heuristics) see them.
			for _, p := range t {
				if _, dup := params.Lookup(p.Key); !dup {
					params.Set(p.Key, p.Value)
				}
			}
		}
		if w.cfg.SendAllBids {
			for _, b := range uo.Bids {
				if b.Late {
					continue
				}
				params.Set(hb.KeyPriceBuck+"_"+b.Bidder, hb.PriceBucket(b.USDCPM()))
			}
		}
		slotSpecs = append(slotSpecs, spec)
	}
	params.Set("slots", strings.Join(slotSpecs, ","))

	w.emit(events.Event{
		Type: events.SetTargeting, Time: now, Library: "prebid.js",
		Params: params,
	})

	req := &webreq.Request{
		URL:    urlkit.WithQuery(w.cfg.AdServerURL, params),
		Method: webreq.GET,
		Kind:   webreq.KindXHR,
		Sent:   now,
	}
	if !strings.Contains(w.cfg.AdServerURL, "?") {
		// The query is exactly the one we just encoded: hand it to the
		// request so no hop (network, ad server, detector) re-parses it.
		req.PrefillParams(params)
	}
	w.env.Fetch(req, func(resp *webreq.Response) {
		r.onAdServerResponse(resp)
	})
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

	decisions := parseAdServerBody(resp)
	for _, u := range w.cfg.AdUnits {
		uo := r.units[u.Code]
		uo.AdServerLatency = now.Sub(uo.End)
		d, ok := decisions[u.Code]
		if !ok {
			d = slotDecision{Channel: "unfilled"}
		}
		uo.Channel = d.Channel
		if d.Channel == "hb" && uo.Winner != nil {
			w.emit(events.Event{
				Type: events.BidWon, Time: now, AuctionID: uo.AuctionID,
				AdUnit: u.Code, Bidder: uo.Winner.Bidder,
				CPM: uo.Winner.USDCPM(), Size: uo.Winner.Size,
				Library: "prebid.js",
				Params: urlkit.Query{
					{Key: hb.KeyBidder, Value: uo.Winner.Bidder},
					{Key: hb.KeyPriceBuck, Value: hb.PriceBucket(uo.Winner.USDCPM())},
				},
			})
		}
		r.render(u, uo, d)
	}
	r.maybeDone()
}

// slotDecision is the per-slot decision parsed from the ad-server body.
type slotDecision struct {
	Channel     string
	CreativeURL string
	Fails       bool
}

// parseAdServerBody extracts per-slot creative URLs from the ad-server
// response. The body format is one line per slot:
//
//	slot|channel|creativeURL[|fail]
//
// Unknown/malformed lines are skipped — pages must tolerate garbage.
func parseAdServerBody(resp *webreq.Response) map[string]slotDecision {
	out := make(map[string]slotDecision)
	if resp == nil || !resp.OK() {
		return out
	}
	for _, line := range strings.Split(resp.Body, "\n") {
		parts := strings.Split(strings.TrimSpace(line), "|")
		if len(parts) < 3 {
			continue
		}
		d := slotDecision{Channel: parts[1], CreativeURL: parts[2]}
		if len(parts) > 3 && parts[3] == "fail" {
			d.Fails = true
		}
		out[parts[0]] = d
	}
	return out
}

// render fetches the creative for one slot and fires the render events,
// including the winner-notification beacon for HB wins (protocol Step 4).
func (r *roundState) render(u AdUnit, uo *UnitOutcome, d slotDecision) {
	w := r.wrapper
	if d.CreativeURL == "" {
		// Nothing to render (unfilled); the slot stays empty.
		uo.Rendered = false
		return
	}
	r.rendersPending++
	req := &webreq.Request{
		URL:    d.CreativeURL,
		Method: webreq.GET,
		Kind:   webreq.KindCreative,
		Sent:   w.env.Now(),
	}
	w.env.Fetch(req, func(resp *webreq.Response) {
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
			Params: urlkit.Query{{Key: "channel", Value: d.Channel}},
		})
		if d.Channel == "hb" && uo.Winner != nil {
			// Winner notification beacon with the charged price.
			nurl := winNURL(bidderHost(w, uo.Winner.Bidder), uo.AuctionID,
				uo.Winner.Bidder, uo.Winner.USDCPM())
			w.env.Fetch(&webreq.Request{
				URL: nurl, Method: webreq.GET, Kind: webreq.KindBeacon, Sent: now,
			}, func(*webreq.Response) {})
		}
		r.maybeDone()
	})
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

// WaitBudget estimates how long a caller should let the page settle after
// RequestBids for everything (timeout, ad server, renders, beacons) to
// conclude: the wrapper deadline plus a grace period, matching the
// crawler's "page loaded + 5 seconds" policy.
func (c Config) WaitBudget() time.Duration {
	return c.Timeout() + 5*time.Second
}
