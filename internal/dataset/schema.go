package dataset

import (
	"strconv"

	"headerbid/internal/rtb/jsonkit"
)

// The JSONL record schema as data (DESIGN.md §5.4): one field table per
// record type, in declaration order, giving each member's JSON key, the
// omitempty flag of its struct tag and an accessor that returns a
// pointer to the field. The JSON kernel (internal/rtb/jsonkit) walks
// the tables both to write a record (Writer) and to decode one on the
// fast path (decode.go), so neither holds a schema of its own; the
// struct tags remain what encoding/json, the reference for the file
// format, reads, and TestFieldTablesMatchTags holds the tables to them.
// Interned marks a string (or the strings of a []string) drawn from a
// closed vocabulary, which the decoder interns instead of copying.

var bidFields = jsonkit.Table([]jsonkit.Field[*BidRecord]{
	{Key: "bidder", Interned: true, Ptr: func(b *BidRecord) any { return &b.Bidder }},
	{Key: "cpm", Ptr: func(b *BidRecord) any { return &b.CPM }},
	{Key: "size", Omitempty: true, Interned: true, Ptr: func(b *BidRecord) any { return &b.Size }},
	{Key: "late", Omitempty: true, Ptr: func(b *BidRecord) any { return &b.Late }},
	{Key: "latency_ms", Omitempty: true, Ptr: func(b *BidRecord) any { return &b.LatencyMS }},
	{Key: "source", Omitempty: true, Interned: true, Ptr: func(b *BidRecord) any { return &b.Source }},
})

var auctionFields = jsonkit.Table([]jsonkit.Field[*AuctionRecord]{
	{Key: "id", Ptr: func(a *AuctionRecord) any { return &a.ID }},
	{Key: "ad_unit", Interned: true, Ptr: func(a *AuctionRecord) any { return &a.AdUnit }},
	{Key: "size", Omitempty: true, Interned: true, Ptr: func(a *AuctionRecord) any { return &a.Size }},
	{Key: "duration_ms", Omitempty: true, Ptr: func(a *AuctionRecord) any { return &a.DurationMS }},
	{Key: "bids", Omitempty: true, Ptr: func(a *AuctionRecord) any { return &a.Bids }, Kind: jsonkit.List(bidFields, decodeBids)},
	{Key: "winner", Omitempty: true, Interned: true, Ptr: func(a *AuctionRecord) any { return &a.Winner }},
	{Key: "winner_cpm", Omitempty: true, Ptr: func(a *AuctionRecord) any { return &a.WinnerCPM }},
	{Key: "rendered", Omitempty: true, Ptr: func(a *AuctionRecord) any { return &a.Rendered }},
	{Key: "failed", Omitempty: true, Ptr: func(a *AuctionRecord) any { return &a.Failed }},
})

var trafficFields = jsonkit.Table([]jsonkit.Field[*TrafficRecord]{
	{Key: "bid_requests", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.BidRequests }},
	{Key: "hosted_calls", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.HostedCalls }},
	{Key: "ad_server", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.AdServer }},
	{Key: "creatives", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.Creatives }},
	{Key: "beacons", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.Beacons }},
	{Key: "scripts", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.Scripts }},
	{Key: "other", Omitempty: true, Ptr: func(t *TrafficRecord) any { return &t.Other }},
})

var siteFields = jsonkit.Table([]jsonkit.Field[*SiteRecord]{
	{Key: "domain", Ptr: func(r *SiteRecord) any { return &r.Domain }},
	{Key: "rank", Ptr: func(r *SiteRecord) any { return &r.Rank }},
	{Key: "visit_day", Ptr: func(r *SiteRecord) any { return &r.VisitDay }},
	{Key: "hb", Ptr: func(r *SiteRecord) any { return &r.HB }},
	{Key: "facet", Omitempty: true, Interned: true, Ptr: func(r *SiteRecord) any { return &r.Facet }},
	{Key: "libraries", Omitempty: true, Interned: true, Ptr: func(r *SiteRecord) any { return &r.Libraries }},
	{Key: "partners", Omitempty: true, Interned: true, Ptr: func(r *SiteRecord) any { return &r.Partners }},
	{Key: "winners", Omitempty: true, Interned: true, Ptr: func(r *SiteRecord) any { return &r.Winners }},
	{Key: "auctions", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.Auctions }, Kind: jsonkit.List(auctionFields, decodeAuctions)},
	{Key: "hb_latency_ms", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.TotalHBLatencyMS }},
	{Key: "ad_slots", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.AdSlotsAuctioned }},
	{Key: "partner_latency_ms", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.PartnerLatencyMS }, Kind: jsonkit.Map(appendFloats, decodeLatency)},
	// omitempty has no effect on a struct: the member is always written.
	{Key: "traffic", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.Traffic }, Kind: jsonkit.Object(trafficFields)},
	{Key: "partner_errors", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.PartnerErrors }, Kind: jsonkit.Map(appendInt, decodeErrors)},
	{Key: "retries", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.Retries }},
	{Key: "abandoned", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.Abandoned }},
	{Key: "quarantined", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.Quarantined }},
	{Key: "panic_site", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.PanicSite }},
	{Key: "loaded", Ptr: func(r *SiteRecord) any { return &r.Loaded }},
	{Key: "timed_out", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.TimedOut }},
	{Key: "err", Omitempty: true, Ptr: func(r *SiteRecord) any { return &r.Err }},
})

// appendFloats writes a latency series, null when nil.
func appendFloats(dst []byte, v []float64) ([]byte, bool) {
	if v == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = jsonkit.AppendFloat(dst, f); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

func appendInt(dst []byte, n int) ([]byte, bool) {
	return strconv.AppendInt(dst, int64(n), 10), true
}
