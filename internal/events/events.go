// Package events models the DOM-level events that HB libraries fire during
// an auction. The paper's detector works precisely because these events are
// (a) observable from a content script and (b) triggered only by HB
// libraries, never by waterfall RTB. The Bus here is the seam where the
// detector "taps" page activity, like addEventListener on the real DOM.
package events

import (
	"fmt"
	"time"

	"headerbid/internal/hb"
	"headerbid/internal/urlkit"
)

// Type enumerates the HB library events the detector understands
// (Section 3.1 of the paper).
type Type string

const (
	AuctionInit     Type = "auctionInit"     // the auction has started
	RequestBids     Type = "requestBids"     // bids have been requested
	BidRequested    Type = "bidRequested"    // a bid was requested from a partner
	BidResponse     Type = "bidResponse"     // a response has arrived
	BidTimeout      Type = "bidTimeout"      // a partner missed the wrapper deadline
	AuctionEnd      Type = "auctionEnd"      // the auction has ended
	BidWon          Type = "bidWon"          // a bid has won
	SetTargeting    Type = "setTargeting"    // targeting pushed to the ad server library
	SlotRenderEnded Type = "slotRenderEnded" // ad code injected into a slot
	AdRenderFailed  Type = "adRenderFailed"  // an ad failed to render
)

// Valid reports whether t is a known event type. The detector calls it
// on every event of every visit.
func (t Type) Valid() bool {
	switch t {
	case AuctionInit, RequestBids, BidRequested, BidResponse, BidTimeout,
		AuctionEnd, BidWon, SetTargeting, SlotRenderEnded, AdRenderFailed:
		return true
	}
	return false
}

// Event is one HB library event with the metadata the library attaches.
// Fields are populated according to Type; e.g. a BidResponse carries
// Bidder, CPM, Currency and Size, while SlotRenderEnded carries AdUnit and
// Size only.
type Event struct {
	Type      Type
	Time      time.Time
	AuctionID string
	AdUnit    string
	Bidder    string
	CPM       float64
	Currency  hb.Currency
	Size      hb.Size
	// Params carries library-specific extras (hb_* targeting, deal ids),
	// exactly the key-values the detector mines for Server-Side HB.
	Params urlkit.Query
	// Library names the emitting wrapper ("prebid.js", "gpt.js", ...).
	Library string
}

// String renders a compact human-readable form for logs and test output.
func (e Event) String() string {
	return fmt.Sprintf("%s[%s/%s bidder=%s cpm=%.3f %s]",
		e.Type, e.AuctionID, e.AdUnit, e.Bidder, e.CPM, e.Size)
}

// Listener consumes events. Listeners run synchronously on the page's
// event loop, like real DOM handlers.
type Listener func(Event)

// Bus dispatches events to listeners. It is intentionally synchronous and
// single-threaded: pages (and the simulation's scheduler) deliver events
// in order, and the detector relies on that ordering. The zero value is
// ready to use.
//
// Listeners live in an append-ordered slice (registration order is the
// dispatch order), so Emit is a plain iteration. Cancel nils the entry
// rather than splicing, so unsubscribing from inside a listener during
// dispatch cannot skip or re-run sibling listeners.
type Bus struct {
	listeners []Listener
	// gen is bumped by Reset. Cancel funcs capture the generation they
	// were issued under and become no-ops after a Reset, so a stale
	// cancel from a previous page cannot nil a listener slot the current
	// page has re-used.
	gen uint64
}

// SubscribeAll registers fn for every event type.
func (b *Bus) SubscribeAll(fn Listener) (cancel func()) {
	b.listeners = append(b.listeners, fn)
	idx := len(b.listeners) - 1
	gen := b.gen
	return func() {
		if b.gen == gen {
			b.listeners[idx] = nil
		}
	}
}

// Reset returns the bus to its zero state, reusing the listener
// table's storage. Pages pooled across crawl visits reset their bus
// instead of allocating a new one; outstanding cancel funcs from before
// the reset become no-ops.
func (b *Bus) Reset() {
	b.gen++
	clear(b.listeners)
	b.listeners = b.listeners[:0]
}

// Emit delivers e to listeners in deterministic (registration) order.
func (b *Bus) Emit(e Event) {
	for _, fn := range b.listeners {
		if fn != nil {
			fn(e)
		}
	}
}
