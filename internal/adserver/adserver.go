// Package adserver implements the publisher ad server of the protocol —
// the DFP-like component that (Step 3 of Figure 2) receives the wrapper's
// collected bids as hb_* key-values, compares them against floor prices
// and direct-sold line items, optionally adds its own server-side demand,
// and returns the winning creative. It also drives the fallback channels
// (direct orders, house ads) when HB does not clear.
package adserver

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"headerbid/internal/hb"
	"headerbid/internal/rng"
)

// LineItemType orders the non-HB sale channels by priority, mirroring how
// DFP prioritizes inventory (direct > price priority/RTB > house).
type LineItemType int

const (
	// Direct is a directly-sold campaign: an advertiser bought N
	// impressions on this site for a fixed CPM (the "Super Bowl on
	// espn.com" case from the paper's introduction).
	Direct LineItemType = iota
	// PricePriority is remnant programmatic demand handled by the server.
	PricePriority
	// House is the publisher's own fallback creative; it always fills.
	House
)

// String names the line-item type.
func (t LineItemType) String() string {
	switch t {
	case Direct:
		return "direct"
	case PricePriority:
		return "price-priority"
	case House:
		return "house"
	default:
		return "unknown"
	}
}

// LineItem is one booked campaign in the ad server.
type LineItem struct {
	ID        string
	Type      LineItemType
	CPM       float64 // value used when competing with HB bids
	Sizes     []hb.Size
	Remaining int // impressions left on the order; <0 means unlimited
}

// Matches reports whether the line item can fill a slot of the given size.
func (li *LineItem) Matches(size hb.Size) bool {
	if len(li.Sizes) == 0 {
		return true
	}
	for _, s := range li.Sizes {
		if s == size {
			return true
		}
	}
	return false
}

// Decision explains how one ad request was filled.
type Decision struct {
	AdUnit    string
	Size      hb.Size
	Channel   string  // "hb", "direct", "price-priority", "house", "unfilled"
	Bidder    string  // winning HB bidder when Channel == "hb"
	CPM       float64 // clearing CPM
	LineItem  string  // winning line item ID for non-HB channels
	Floor     float64
	HBCleared bool // whether the HB bid beat the floor and other channels
	// Elapsed is the server-side decisioning time added to the response.
	Elapsed time.Duration
}

// Request is one ad request for a single ad unit, carrying the wrapper's
// HB targeting (empty for pure waterfall requests).
type Request struct {
	Site      string
	AdUnit    string
	Size      hb.Size
	Targeting hb.Targeting
	// AuctionID threads the wrapper's auction through the server logs.
	AuctionID string
}

// Config tunes a publisher's ad server.
type Config struct {
	// FloorCPM is the publisher's price floor for HB demand.
	FloorCPM float64
	// DirectFill is the probability a direct order exists for a request
	// (clean-state crawls see few direct campaigns targeted at them).
	DirectFill float64
	// DirectCPMMedian parameterizes direct order pricing.
	DirectCPMMedian float64
	// DecisionTime is the median server-side decisioning latency.
	DecisionTime time.Duration
	// Seed makes the server's stochastic choices reproducible.
	Seed int64
}

// DefaultConfig returns the configuration used for generated publishers.
func DefaultConfig(seed int64) Config {
	return Config{
		FloorCPM:        0.01,
		DirectFill:      0.05,
		DirectCPMMedian: 1.1,
		DecisionTime:    25 * time.Millisecond,
		Seed:            seed,
	}
}

// Server is one publisher's ad server instance. It is deliberately
// deterministic: all randomness flows from the seeded stream.
type Server struct {
	cfg   Config
	rng   rng.Stream
	items []LineItem
	// fills counts decisions per channel (channels order) for
	// FillRateByChannel.
	fills [len(channels)]int
}

// channels names the decision channels in the order Server.fills counts
// them.
var channels = [...]string{"hb", "direct", "price-priority", "house", "unfilled"}

// Book is a server's state before its first decision: its config, its
// generated line-item book and its stream just after generating it. A
// book is a pure function of the config, so it is built once (per
// world, per ad server in package sitegen) and shared read-only: every
// Server started from it with Reset decides exactly as a server New
// built from the same config.
type Book struct {
	cfg   Config
	items []LineItem
	rng   rng.Stream
}

// NewBook generates the line-item book for cfg.
func NewBook(cfg Config) *Book {
	b := &Book{cfg: cfg}
	b.rng.Reseed(cfg.Seed)
	b.items = generateBook(&b.rng, cfg)
	return b
}

// New creates a server with a generated line-item book.
func New(cfg Config) *Server {
	s := &Server{}
	s.Reset(NewBook(cfg))
	return s
}

// Reset returns s to the state a server New built from b's config
// starts in, reusing s's line-item storage: the book's items are copied
// (decisions consume their Remaining counts), their size lists are
// shared read-only, and the stream restarts at the book's state.
func (s *Server) Reset(b *Book) {
	s.cfg = b.cfg
	s.rng = b.rng
	s.items = append(s.items[:0], b.items...)
	s.fills = [len(channels)]int{}
}

// generateBook creates a small plausible set of line items: a few direct
// campaigns with frequency caps, remnant price-priority demand, and a
// house ad that always fills.
func generateBook(r *rng.Stream, cfg Config) []LineItem {
	var items []LineItem
	nDirect := r.UniformInt(0, 3)
	for i := 0; i < nDirect; i++ {
		items = append(items, LineItem{
			ID:        "direct-" + strconv.Itoa(i+1),
			Type:      Direct,
			CPM:       r.LogNormal(logm(cfg.DirectCPMMedian), 0.4),
			Sizes:     []hb.Size{hb.SizeMediumRectangle, hb.SizeLeaderboard}[0 : 1+r.Intn(2)],
			Remaining: r.UniformInt(100, 10000),
		})
	}
	items = append(items, LineItem{
		ID:        "pp-1",
		Type:      PricePriority,
		CPM:       r.LogNormal(logm(0.08), 0.6),
		Remaining: -1,
	})
	items = append(items, LineItem{
		ID:        "house-1",
		Type:      House,
		CPM:       0,
		Remaining: -1,
	})
	return items
}

// Floor returns the configured HB floor price.
func (s *Server) Floor() float64 { return s.cfg.FloorCPM }

// Decide resolves one ad request against HB targeting and the line-item
// book, implementing the paper's Step 3: "the ad server will check the
// received bids and compare with the floor price ... alternatively, the ad
// server can check the rest of the available channels".
func (s *Server) Decide(req Request) Decision {
	d := Decision{
		AdUnit:  req.AdUnit,
		Size:    req.Size,
		Floor:   s.cfg.FloorCPM,
		Elapsed: s.decisionLatency(),
	}

	hbCPM, hbOK := req.Targeting.Price()
	hbBidder := req.Targeting.Bidder()
	if hbOK && hbBidder != "" && hbCPM >= s.cfg.FloorCPM {
		d.HBCleared = true
	}

	// Direct orders outrank HB only when their CPM beats the HB bid; the
	// whole point of HB is to let programmatic compete with direct.
	best := s.bestLineItem(req)
	directAvailable := best != nil && best.Type == Direct && s.rng.Bool(s.cfg.DirectFill)

	switch {
	case d.HBCleared && (!directAvailable || hbCPM >= best.CPM):
		d.Channel = "hb"
		d.Bidder = hbBidder
		d.CPM = hbCPM
	case directAvailable:
		d.Channel = "direct"
		d.LineItem = best.ID
		d.CPM = best.CPM
		s.consume(best)
	default:
		// Remnant channels.
		if pp := s.lineItemOfType(PricePriority, req.Size); pp != nil && s.rng.Bool(0.35) {
			d.Channel = pp.Type.String()
			d.LineItem = pp.ID
			d.CPM = pp.CPM
		} else if house := s.lineItemOfType(House, req.Size); house != nil {
			d.Channel = house.Type.String()
			d.LineItem = house.ID
			d.CPM = 0
		} else {
			d.Channel = "unfilled"
		}
	}
	for i, ch := range channels {
		if ch == d.Channel {
			s.fills[i]++
			break
		}
	}
	return d
}

func (s *Server) decisionLatency() time.Duration {
	med := float64(s.cfg.DecisionTime) / float64(time.Millisecond)
	if med <= 0 {
		med = 20
	}
	ms := s.rng.LogNormal(logm(med), 0.35)
	return time.Duration(ms * float64(time.Millisecond))
}

func (s *Server) bestLineItem(req Request) *LineItem {
	var best *LineItem
	for i := range s.items {
		li := &s.items[i]
		if li.Type != Direct || li.Remaining == 0 || !li.Matches(req.Size) {
			continue
		}
		if best == nil || li.CPM > best.CPM {
			best = li
		}
	}
	return best
}

func (s *Server) lineItemOfType(t LineItemType, size hb.Size) *LineItem {
	for i := range s.items {
		li := &s.items[i]
		if li.Type == t && li.Remaining != 0 && li.Matches(size) {
			return li
		}
	}
	return nil
}

func (s *Server) consume(li *LineItem) {
	if li.Remaining > 0 {
		li.Remaining--
	}
}

// FillRateByChannel returns each channel's share of the decisions made
// so far (nil before the first).
func (s *Server) FillRateByChannel() map[string]float64 {
	total := 0
	for _, n := range s.fills {
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make(map[string]float64, len(channels))
	for i, n := range s.fills {
		if n > 0 {
			out[channels[i]] = float64(n) / float64(total)
		}
	}
	return out
}

// RenderTag builds the ad-server response markup for a decision: a
// creative snippet whose URL carries the HB key-values back to the page.
// This is the response the detector mines on Server-Side and Hybrid HB
// (Section 4.2: "after inspecting the responses received by the browser,
// we can discover the parameters referring to HB").
func RenderTag(d Decision, t hb.Targeting) string {
	var sb strings.Builder
	sb.WriteString(`<div class="ad-slot" data-adunit="`)
	sb.WriteString(d.AdUnit)
	sb.WriteString(`">`)
	sb.WriteString(`<img src="https://creatives.example/render?` + renderParams(d, t) + `"/>`)
	sb.WriteString(`</div>`)
	return sb.String()
}

func renderParams(d Decision, t hb.Targeting) string {
	pairs := []string{
		"slot=" + d.AdUnit,
		"size=" + d.Size.String(),
		"channel=" + d.Channel,
	}
	if d.Channel == "hb" {
		pairs = append(pairs,
			hb.KeyBidder+"="+d.Bidder,
			hb.KeyPriceBuck+"="+hb.PriceBucket(d.CPM),
			hb.KeySize+"="+d.Size.String(),
		)
		// Propagate any extra targeting (cache ids, deals) the wrapper set.
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k == hb.KeyBidder || k == hb.KeyPriceBuck || k == hb.KeySize {
				continue
			}
			pairs = append(pairs, k+"="+t[k])
		}
	} else if d.LineItem != "" {
		pairs = append(pairs, "li="+d.LineItem, "cpm="+strconv.FormatFloat(d.CPM, 'f', 4, 64))
	}
	return strings.Join(pairs, "&")
}

func logm(x float64) float64 {
	if x <= 0 {
		x = 1e-6
	}
	return math.Log(x)
}
