// Package gptlib emulates the Google Publisher Tag (gpt.js) side of the
// page: slot definition, the single ad-server request, creative rendering
// with slotRenderEnded events — and, crucially for the study, the
// Server-Side HB client. In Server-Side HB one request goes to a hosted
// provider which runs the whole auction remotely; the page sees no
// auctionInit/bidResponse events, only the returned impressions whose
// URLs carry hb_* parameters. That asymmetry is exactly what the paper's
// detector exploits to classify facets.
package gptlib

import (
	"strings"
	"time"

	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Env is the page capability the library needs (identical to prebid.Env;
// redeclared locally per Go interface convention).
type Env interface {
	Now() time.Time
	After(d time.Duration, fn func())
	Fetch(req *webreq.Request, cb func(*webreq.Response))
}

// Slot is one defined ad slot.
type Slot struct {
	Code string
	Size hb.Size
}

// ServerSideConfig configures the hosted-HB client for one page.
type ServerSideConfig struct {
	Site     string
	Provider string // partner slug hosting the server-side auction
	Slots    []Slot
}

// ServerSideResult is what the page learns from a hosted auction: almost
// nothing beyond the rendered impressions.
type ServerSideResult struct {
	Site      string
	Provider  string
	Requested time.Time
	Responded time.Time
	Slots     []SlotOutcome
}

// SlotOutcome is one slot's rendered impression.
type SlotOutcome struct {
	Code         string
	Size         hb.Size
	CreativeURL  string
	Rendered     bool
	RenderFailed bool
}

// Latency is the single round trip to the hosted provider.
func (r *ServerSideResult) Latency() time.Duration {
	if r.Responded.IsZero() {
		return 0
	}
	return r.Responded.Sub(r.Requested)
}

// ServerSideClient drives a hosted auction.
type ServerSideClient struct {
	env Env
	bus *events.Bus
	reg *partners.Registry
	cfg ServerSideConfig
}

// NewServerSide creates a hosted-HB client.
func NewServerSide(env Env, bus *events.Bus, reg *partners.Registry, cfg ServerSideConfig) *ServerSideClient {
	return &ServerSideClient{env: env, bus: bus, reg: reg, cfg: cfg}
}

// Run issues the single hosted-auction request and renders the returned
// impressions. done receives the result after all renders settle.
func (c *ServerSideClient) Run(done func(*ServerSideResult)) {
	now := c.env.Now()
	res := &ServerSideResult{Site: c.cfg.Site, Provider: c.cfg.Provider, Requested: now}

	provider, ok := c.reg.BySlug(c.cfg.Provider)
	if !ok {
		if done != nil {
			done(res)
		}
		return
	}
	var specs []string
	for _, s := range c.cfg.Slots {
		specs = append(specs, s.Code+"|"+s.Size.String())
	}
	endpoint := "https://hb." + provider.Host + "/ssp/auction"
	hostedParams := urlkit.Query{
		{Key: "site", Value: c.cfg.Site},
		{Key: "slots", Value: strings.Join(specs, ",")},
	}
	req := &webreq.Request{
		URL:    urlkit.WithQuery(endpoint, hostedParams),
		Method: webreq.POST,
		Kind:   webreq.KindXHR,
		Sent:   now,
	}
	req.PrefillParams(hostedParams)
	c.env.Fetch(req, func(resp *webreq.Response) {
		c.onResponse(res, resp, done)
	})
}

// onResponse reads the per-slot creative lines (hb.SlotLine, the ad
// server's wire shape) and renders them.
func (c *ServerSideClient) onResponse(res *ServerSideResult, resp *webreq.Response, done func(*ServerSideResult)) {
	res.Responded = c.env.Now()
	pending := 0
	finish := func() {
		if pending == 0 && done != nil {
			done(res)
			done = nil
		}
	}
	if resp.Err != "" || !resp.OK() {
		finish()
		return
	}
	lines := hb.ScanSlotLines(resp.Body)
	for line, ok := lines.Next(); ok; line, ok = lines.Next() {
		slot := c.slotByCode(line.Slot)
		if slot == nil {
			continue
		}
		out := SlotOutcome{Code: slot.Code, Size: slot.Size, CreativeURL: line.CreativeURL}
		fails := line.Fails
		if res.Slots == nil {
			res.Slots = make([]SlotOutcome, 0, len(c.cfg.Slots))
		}
		res.Slots = append(res.Slots, out)
		idx := len(res.Slots) - 1
		if out.CreativeURL == "" {
			continue
		}
		pending++
		req := &webreq.Request{
			URL: out.CreativeURL, Method: webreq.GET,
			Kind: webreq.KindCreative, Sent: c.env.Now(),
		}
		c.env.Fetch(req, func(cresp *webreq.Response) {
			now := c.env.Now()
			pending--
			so := &res.Slots[idx]
			if fails || cresp.Err != "" || !cresp.OK() {
				so.RenderFailed = true
				c.emit(events.Event{
					Type: events.AdRenderFailed, Time: now,
					AdUnit: so.Code, Size: so.Size, Library: "gpt.js",
				})
			} else {
				so.Rendered = true
				c.emit(events.Event{
					Type: events.SlotRenderEnded, Time: now,
					AdUnit: so.Code, Size: so.Size, Library: "gpt.js",
					Params: req.Params(), // the fetch's own parse of the creative URL
				})
			}
			finish()
		})
	}
	finish()
}

func (c *ServerSideClient) slotByCode(code string) *Slot {
	for i := range c.cfg.Slots {
		if c.cfg.Slots[i].Code == code {
			return &c.cfg.Slots[i]
		}
	}
	return nil
}

func (c *ServerSideClient) emit(e events.Event) {
	if c.bus != nil {
		c.bus.Emit(e)
	}
}

// SlotsFromAdUnits converts prebid ad units to GPT slots (primary size).
func SlotsFromAdUnits(units []prebid.AdUnit) []Slot {
	out := make([]Slot, 0, len(units))
	for _, u := range units {
		out = append(out, Slot{Code: u.Code, Size: u.PrimarySize()})
	}
	return out
}
