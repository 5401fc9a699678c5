// Package adserver implements the publisher ad server of the protocol —
// the DFP-like component that (Step 3 of Figure 2) receives the wrapper's
// collected bids as hb_* key-values, compares them against floor prices
// and direct-sold line items, optionally adds its own server-side demand,
// and returns the winning creative. It also drives the fallback channels
// (direct orders, house ads) when HB does not clear.
package adserver

import (
	"math"
	"strconv"
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
}

// Book is a server's state before its first decision: its config, its
// generated line-item book and its stream just after generating it. A
// book is a pure function of the config, so it is built once (per
// world, per ad server in package sitegen) and shared read-only: every
// Server started from it with Reset decides the same way.
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

// Reset returns s to the state a server starts in with b's book,
// reusing s's line-item storage: the book's items are copied (decisions
// consume their Remaining counts), their size lists are shared
// read-only, and the stream restarts at the book's state. The zero
// Server is ready for its first Reset.
func (s *Server) Reset(b *Book) {
	s.cfg = b.cfg
	s.rng = b.rng
	s.items = append(s.items[:0], b.items...)
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

func logm(x float64) float64 {
	if x <= 0 {
		x = 1e-6
	}
	return math.Log(x)
}
