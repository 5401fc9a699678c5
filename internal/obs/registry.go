package obs

import (
	"strconv"
	"sync/atomic"
)

// regShards fixes the registry's shard count. Workers index shards by
// worker id masked into this range, so any worker count is safe without
// the registry knowing the crawl's parallelism up front; the crawler
// caps workers well below this in practice, making shards contention-
// free in the common case.
const regShards = 64

// Counters is one shard of run-level telemetry. All fields are atomics:
// the owning worker adds, any number of HTTP readers snapshot
// concurrently. Counts are harvested once per completed visit on the
// worker goroutine — never inside the virtual-clock hot path.
type Counters struct {
	Visits      atomic.Uint64
	Loaded      atomic.Uint64
	TimedOut    atomic.Uint64
	HB          atomic.Uint64
	Quarantined atomic.Uint64

	// Degradation telemetry, folded from the per-visit wire record.
	Retries       atomic.Uint64
	PartnerErrors atomic.Uint64
	Abandoned     atomic.Uint64

	// Visit-runtime pool behavior: a hit reuses the pooled
	// scheduler/network/page, a miss (re)builds it — once per worker
	// per crawl, and at every post-quarantine rebuild.
	PoolHits   atomic.Uint64
	PoolMisses atomic.Uint64

	// Virtual wire traffic: simulated fetches and request/response
	// payload bytes, summed from the visit network's counters.
	WireRequests atomic.Uint64
	WireBytesOut atomic.Uint64
	WireBytesIn  atomic.Uint64
	TracedVisits atomic.Uint64
}

// Registry is the run-level telemetry surface: per-worker counter
// shards, merged on read. Safe for concurrent use; a nil Registry is
// legal everywhere and records nothing.
type Registry struct {
	shards [regShards]Counters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Worker returns the shard for a worker id. Nil-safe only at the
// caller: crawl code checks the registry before harvesting.
func (r *Registry) Worker(id int) *Counters {
	return &r.shards[id&(regShards-1)]
}

// Totals is a merged, point-in-time snapshot of all shards.
type Totals struct {
	Visits, Loaded, TimedOut, HB, Quarantined uint64
	Retries, PartnerErrors, Abandoned         uint64
	PoolHits, PoolMisses                      uint64
	WireRequests, WireBytesOut, WireBytesIn   uint64
	TracedVisits                              uint64
}

// Totals sums the shards. Nil-safe: a nil registry reads as zero.
func (r *Registry) Totals() Totals {
	var t Totals
	if r == nil {
		return t
	}
	for i := range r.shards {
		c := &r.shards[i]
		t.Visits += c.Visits.Load()
		t.Loaded += c.Loaded.Load()
		t.TimedOut += c.TimedOut.Load()
		t.HB += c.HB.Load()
		t.Quarantined += c.Quarantined.Load()
		t.Retries += c.Retries.Load()
		t.PartnerErrors += c.PartnerErrors.Load()
		t.Abandoned += c.Abandoned.Load()
		t.PoolHits += c.PoolHits.Load()
		t.PoolMisses += c.PoolMisses.Load()
		t.WireRequests += c.WireRequests.Load()
		t.WireBytesOut += c.WireBytesOut.Load()
		t.WireBytesIn += c.WireBytesIn.Load()
		t.TracedVisits += c.TracedVisits.Load()
	}
	return t
}

// fields enumerates the totals in a fixed order — the single source of
// truth for the JSON rendering, so key order never depends on a map.
func (t Totals) fields() []struct {
	Name  string
	Value uint64
} {
	return []struct {
		Name  string
		Value uint64
	}{
		{"visits", t.Visits},
		{"loaded", t.Loaded},
		{"timed_out", t.TimedOut},
		{"hb", t.HB},
		{"quarantined", t.Quarantined},
		{"retries", t.Retries},
		{"partner_errors", t.PartnerErrors},
		{"abandoned", t.Abandoned},
		{"pool_hits", t.PoolHits},
		{"pool_misses", t.PoolMisses},
		{"wire_requests", t.WireRequests},
		{"wire_bytes_out", t.WireBytesOut},
		{"wire_bytes_in", t.WireBytesIn},
		{"traced_visits", t.TracedVisits},
	}
}

// AppendJSON renders the totals as a flat JSON object in fixed key
// order.
func (t Totals) AppendJSON(buf []byte) []byte {
	buf = append(buf, '{')
	for i, f := range t.fields() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, f.Name...)
		buf = append(buf, `":`...)
		buf = strconv.AppendUint(buf, f.Value, 10)
	}
	return append(buf, '}')
}
