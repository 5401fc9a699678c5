package dataset

// The JSONL record schema as data (DESIGN.md §5.4): one field table per
// record type, in declaration order, giving each member's JSON key, the
// omitempty flag of its struct tag and an accessor that returns a
// pointer to the field. The writer (encode.go) encodes by walking the
// tables and the fast decoder (decode.go) dispatches on them, so neither
// holds a schema of its own; the struct tags remain what encoding/json,
// the reference for the file format, reads, and TestFieldTablesMatchTags
// holds the tables to them.

// field is one member of record type R. ptr returns a pointer to the
// field: *string, *int, *bool, *float64, *[]string, *[]AuctionRecord,
// *[]BidRecord, *map[string][]float64, *map[string]int or
// *TrafficRecord, the kinds the encoder and decoder know. interned marks
// a string (or the strings of a []string) drawn from a closed
// vocabulary, which the decoder interns instead of copying.
type field[R any] struct {
	key       string
	omitempty bool
	interned  bool
	ptr       func(*R) any
}

var siteFields = []field[SiteRecord]{
	{key: "domain", ptr: func(r *SiteRecord) any { return &r.Domain }},
	{key: "rank", ptr: func(r *SiteRecord) any { return &r.Rank }},
	{key: "visit_day", ptr: func(r *SiteRecord) any { return &r.VisitDay }},
	{key: "hb", ptr: func(r *SiteRecord) any { return &r.HB }},
	{key: "facet", omitempty: true, interned: true, ptr: func(r *SiteRecord) any { return &r.Facet }},
	{key: "libraries", omitempty: true, interned: true, ptr: func(r *SiteRecord) any { return &r.Libraries }},
	{key: "partners", omitempty: true, interned: true, ptr: func(r *SiteRecord) any { return &r.Partners }},
	{key: "winners", omitempty: true, interned: true, ptr: func(r *SiteRecord) any { return &r.Winners }},
	{key: "auctions", omitempty: true, ptr: func(r *SiteRecord) any { return &r.Auctions }},
	{key: "hb_latency_ms", omitempty: true, ptr: func(r *SiteRecord) any { return &r.TotalHBLatencyMS }},
	{key: "ad_slots", omitempty: true, ptr: func(r *SiteRecord) any { return &r.AdSlotsAuctioned }},
	{key: "partner_latency_ms", omitempty: true, ptr: func(r *SiteRecord) any { return &r.PartnerLatencyMS }},
	// omitempty has no effect on a struct: the member is always written.
	{key: "traffic", omitempty: true, ptr: func(r *SiteRecord) any { return &r.Traffic }},
	{key: "partner_errors", omitempty: true, ptr: func(r *SiteRecord) any { return &r.PartnerErrors }},
	{key: "retries", omitempty: true, ptr: func(r *SiteRecord) any { return &r.Retries }},
	{key: "abandoned", omitempty: true, ptr: func(r *SiteRecord) any { return &r.Abandoned }},
	{key: "quarantined", omitempty: true, ptr: func(r *SiteRecord) any { return &r.Quarantined }},
	{key: "panic_site", omitempty: true, ptr: func(r *SiteRecord) any { return &r.PanicSite }},
	{key: "loaded", ptr: func(r *SiteRecord) any { return &r.Loaded }},
	{key: "timed_out", omitempty: true, ptr: func(r *SiteRecord) any { return &r.TimedOut }},
	{key: "err", omitempty: true, ptr: func(r *SiteRecord) any { return &r.Err }},
}

var auctionFields = []field[AuctionRecord]{
	{key: "id", ptr: func(a *AuctionRecord) any { return &a.ID }},
	{key: "ad_unit", interned: true, ptr: func(a *AuctionRecord) any { return &a.AdUnit }},
	{key: "size", omitempty: true, interned: true, ptr: func(a *AuctionRecord) any { return &a.Size }},
	{key: "duration_ms", omitempty: true, ptr: func(a *AuctionRecord) any { return &a.DurationMS }},
	{key: "bids", omitempty: true, ptr: func(a *AuctionRecord) any { return &a.Bids }},
	{key: "winner", omitempty: true, interned: true, ptr: func(a *AuctionRecord) any { return &a.Winner }},
	{key: "winner_cpm", omitempty: true, ptr: func(a *AuctionRecord) any { return &a.WinnerCPM }},
	{key: "rendered", omitempty: true, ptr: func(a *AuctionRecord) any { return &a.Rendered }},
	{key: "failed", omitempty: true, ptr: func(a *AuctionRecord) any { return &a.Failed }},
}

var bidFields = []field[BidRecord]{
	{key: "bidder", interned: true, ptr: func(b *BidRecord) any { return &b.Bidder }},
	{key: "cpm", ptr: func(b *BidRecord) any { return &b.CPM }},
	{key: "size", omitempty: true, interned: true, ptr: func(b *BidRecord) any { return &b.Size }},
	{key: "late", omitempty: true, ptr: func(b *BidRecord) any { return &b.Late }},
	{key: "latency_ms", omitempty: true, ptr: func(b *BidRecord) any { return &b.LatencyMS }},
	{key: "source", omitempty: true, interned: true, ptr: func(b *BidRecord) any { return &b.Source }},
}

var trafficFields = []field[TrafficRecord]{
	{key: "bid_requests", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.BidRequests }},
	{key: "hosted_calls", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.HostedCalls }},
	{key: "ad_server", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.AdServer }},
	{key: "creatives", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.Creatives }},
	{key: "beacons", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.Beacons }},
	{key: "scripts", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.Scripts }},
	{key: "other", omitempty: true, ptr: func(t *TrafficRecord) any { return &t.Other }},
}
