// Package pubfood emulates the pubfood.js header-bidding library, the
// third wrapper the paper analyzed (§3.1) alongside prebid.js and gpt.js.
// Pubfood's protocol role is the same as prebid's — parallel bid requests,
// a deadline, targeting pushed to the ad server — but its API surface
// differs: it models "bid providers" serving "slots" and fires a
// slightly different event sequence. Detecting it exercises the
// detector's claim of being library-agnostic over the shared event
// vocabulary.
//
// A pubfood page runs prebid's bid round (prebid.Wrapper): the package
// holds only what pubfood does its own way, as data — its Dialect, and
// its slots and providers as the round's ad units (AdUnits).
package pubfood

import (
	"slices"
	"time"

	"headerbid/internal/hb"
	"headerbid/internal/prebid"
)

// Dialect is pubfood.js's dialect of the bid round. Its events are
// labeled pubfood.js, its renders too; its auctions are
// "<site>-pf<k>", its bid requests "pf-<slug>-<unixnano>", and its
// deadline is 2 s by default (pubfood's examples). It has none of
// prebid.js's extras: no adapter fields in its requests or bids, none of
// prebid's event params, a bare ad-server request of the site, the
// per-slot targeting and the slots, and no win notification; it
// retransmits a failed attempt past the deadline too, and reads an
// undecodable response as no bids.
var Dialect = prebid.Dialect{
	Library:        "pubfood.js",
	RenderLibrary:  "pubfood.js",
	AuctionTag:     "-pf",
	BidIDPrefix:    "pf-",
	DefaultTimeout: 2 * time.Second,
}

// AdUnits returns a pubfood page's slots and bid providers as the
// round's ad units: pubfood separates slots from the providers serving
// them, so every slot keeps its code and its one size (the unit's
// primary size) and lists every provider, the distinct bidders of units
// in first-seen order, each of which bids on every slot. The result
// depends on the page's config alone and is built once per config.
func AdUnits(units []prebid.AdUnit) []prebid.AdUnit {
	var providers []string
	for _, u := range units {
		for _, b := range u.Bidders {
			if !slices.Contains(providers, b) {
				providers = append(providers, b)
			}
		}
	}
	out := make([]prebid.AdUnit, len(units))
	sizes := make([]hb.Size, len(units))
	for i := range units {
		sizes[i] = units[i].PrimarySize()
		out[i] = prebid.AdUnit{Code: units[i].Code, Sizes: sizes[i : i+1 : i+1], Bidders: providers}
	}
	return out
}
