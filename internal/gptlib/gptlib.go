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
	"time"

	"headerbid/internal/events"
	"headerbid/internal/hb"
	"headerbid/internal/partners"
	"headerbid/internal/prebid"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Env is the page capability the library needs (the call-style shape of
// prebid.Env; redeclared locally per Go interface convention).
type Env interface {
	Now() time.Time
	FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any)
	NewRequest() *webreq.Request
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
	// SlotSpecs is the slots value "code|WxH,code|WxH,..." of Slots, as
	// prebid.SlotSpecs renders the page's ad units.
	SlotSpecs string
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

// ServerSideClient drives a hosted auction. The result and the render
// state live in the client and are reused by its next Run, and by the
// next page after Reset: a result is valid until then, and the previous
// run's callbacks must no longer fire.
type ServerSideClient struct {
	env Env
	bus *events.Bus
	reg *partners.Registry
	cfg ServerSideConfig

	res     ServerSideResult
	done    func(*ServerSideResult)
	pending int
	renders webreq.Slab[slotRender] // one per creative fetch
	// params is the hosted-auction request's query, prefilled into the
	// request: both live until the next Run and the page's next Rebind.
	params [2]urlkit.Param
	// strs holds the hosted-auction URLs, page after page.
	strs urlkit.Strings
}

// slotRender is one slot's creative fetch.
type slotRender struct {
	c     *ServerSideClient
	idx   int // index in res.Slots
	fails bool
	req   *webreq.Request
}

// Reset binds the client to a page, keeping its storage for reuse. The
// zero ServerSideClient is ready for its first Reset.
func (c *ServerSideClient) Reset(env Env, bus *events.Bus, reg *partners.Registry, cfg ServerSideConfig) {
	c.env, c.bus, c.reg, c.cfg = env, bus, reg, cfg
}

// Run issues the single hosted-auction request and renders the returned
// impressions. done receives the result after all renders settle.
func (c *ServerSideClient) Run(done func(*ServerSideResult)) {
	now := c.env.Now()
	c.res = ServerSideResult{Site: c.cfg.Site, Provider: c.cfg.Provider, Requested: now, Slots: c.res.Slots[:0]}
	c.done, c.pending = done, 0
	c.renders.Reset()

	provider, ok := c.reg.BySlug(c.cfg.Provider)
	if !ok {
		if done != nil {
			done(&c.res)
		}
		return
	}
	c.params = [2]urlkit.Param{
		{Key: "site", Value: c.cfg.Site},
		{Key: "slots", Value: c.cfg.SlotSpecs},
	}
	req := c.env.NewRequest()
	req.URL = c.strs.WithQuery(provider.HostedAuctionURL(), c.params[:])
	req.Method = webreq.POST
	req.Kind = webreq.KindXHR
	req.Sent = now
	req.PrefillParams(c.params[:])
	c.env.FetchCall(req, hostedResponseCall, c)
}

func hostedResponseCall(resp *webreq.Response, a any) { a.(*ServerSideClient).onResponse(resp) }

// finish reports the result once nothing is pending.
func (c *ServerSideClient) finish() {
	if c.pending == 0 && c.done != nil {
		done := c.done
		c.done = nil
		done(&c.res)
	}
}

// onResponse reads the per-slot creative lines (hb.SlotLine, the ad
// server's wire shape) and renders them.
func (c *ServerSideClient) onResponse(resp *webreq.Response) {
	res := &c.res
	res.Responded = c.env.Now()
	if resp.Err != "" || !resp.OK() {
		c.finish()
		return
	}
	lines := hb.ScanSlotLines(resp.Body)
	for line, ok := lines.Next(); ok; line, ok = lines.Next() {
		slot := c.slotByCode(line.Slot)
		if slot == nil {
			continue
		}
		out := SlotOutcome{Code: slot.Code, Size: slot.Size, CreativeURL: line.CreativeURL}
		res.Slots = append(res.Slots, out)
		if out.CreativeURL == "" {
			continue
		}
		c.pending++
		req := c.env.NewRequest()
		req.URL = out.CreativeURL
		req.Method = webreq.GET
		req.Kind = webreq.KindCreative
		req.Sent = c.env.Now()
		sr := c.renders.Alloc()
		*sr = slotRender{c: c, idx: len(res.Slots) - 1, fails: line.Fails, req: req}
		c.env.FetchCall(req, slotRenderCall, sr)
	}
	c.finish()
}

func slotRenderCall(resp *webreq.Response, a any) { a.(*slotRender).onCreative(resp) }

func (sr *slotRender) onCreative(cresp *webreq.Response) {
	c := sr.c
	now := c.env.Now()
	c.pending--
	so := &c.res.Slots[sr.idx]
	if sr.fails || cresp.Err != "" || !cresp.OK() {
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
			Params: sr.req.Params(), // the fetch's own parse of the creative URL
		})
	}
	c.finish()
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

// AppendSlots appends the GPT slots of prebid ad units (primary size)
// to dst.
func AppendSlots(dst []Slot, units []prebid.AdUnit) []Slot {
	for _, u := range units {
		dst = append(dst, Slot{Code: u.Code, Size: u.PrimarySize()})
	}
	return dst
}
