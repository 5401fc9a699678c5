package analysis

import (
	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/stats"
)

// TrafficSummary quantifies the §7.3 network-overhead discussion: Header
// Bidding broadcasts one bid request per demand partner per round (plus
// the ad-server call, creative fetches, win beacons and sync pixels),
// multiplying the request volume ad infrastructure must absorb relative
// to a waterfall that walks a chain sequentially and usually stops at the
// first tier.
type TrafficSummary struct {
	Sites int

	// Per-HB-visit request statistics.
	BidRequests stats.Box
	HBRelated   stats.Box
	Total       stats.Box

	// MeanByFacet: mean HB-related requests per visit per facet — hosted
	// (server-side) HB collapses the fan-out to one request, which is
	// exactly why the paper finds the market consolidating there.
	MeanByFacet map[hb.Facet]float64

	// AmplificationVsWaterfall estimates the bid-request amplification:
	// HB's per-round partner fan-out versus the waterfall's expected
	// sequential passes for the same demand (the industry reported up to
	// 2x volume; we compute it from the crawl).
	AmplificationVsWaterfall float64
}

// TrafficMetric accumulates the §7.3 overhead summary incrementally:
// per-visit request samples plus facet and fan-out sums. All sums are
// over integer request counts (exact in float64), so shard merges in any
// order reproduce the single-pass result bit for bit.
type TrafficMetric struct {
	state
	passes float64 // expected waterfall passes for the amplification ratio

	bidReqs, hbRel, total []float64
	sumByFacet            map[hb.Facet]float64
	cntByFacet            map[hb.Facet]int
	fanoutSum             float64
	fanoutN               int
}

// NewTraffic returns an empty §7.3 overhead metric.
// expectedWaterfallPasses is the mean number of passes a waterfall walks
// before filling (from the paired waterfall experiment; ~1-2 in
// practice); <=0 disables the amplification estimate.
func NewTraffic(expectedWaterfallPasses float64) *TrafficMetric {
	m := &TrafficMetric{
		passes:     expectedWaterfallPasses,
		sumByFacet: make(map[hb.Facet]float64),
		cntByFacet: make(map[hb.Facet]int),
	}
	return hold(m, (*fparam)(&m.passes), (*samples)(&m.bidReqs), (*samples)(&m.hbRel), (*samples)(&m.total),
		(*tally[hb.Facet, float64])(&m.sumByFacet), (*tally[hb.Facet, int])(&m.cntByFacet),
		(*fsum)(&m.fanoutSum), (*sum)(&m.fanoutN))
}

// Name identifies the metric.
func (m *TrafficMetric) Name() string { return "traffic" }

// Add folds one record in (non-HB records are ignored).
func (m *TrafficMetric) Add(r *dataset.SiteRecord) {
	if !r.HB {
		return
	}
	t := r.Traffic
	m.bidReqs = append(m.bidReqs, float64(t.BidRequests))
	m.hbRel = append(m.hbRel, float64(t.HBRelated()))
	m.total = append(m.total, float64(t.Total()))
	f := r.FacetValue()
	m.sumByFacet[f] += float64(t.HBRelated())
	m.cntByFacet[f]++
	// Fan-out per round: client bid requests plus hosted calls.
	m.fanoutSum += float64(t.BidRequests + t.HostedCalls)
	m.fanoutN++
}

// NewShard returns a fresh empty accumulator with the same passes
// estimate.
func (m *TrafficMetric) NewShard() Metric { return NewTraffic(m.passes) }

// Snapshot returns Result.
func (m *TrafficMetric) Snapshot() any { return m.Result() }

// Result computes the overhead summary over everything added.
func (m *TrafficMetric) Result() TrafficSummary {
	out := TrafficSummary{Sites: m.fanoutN, MeanByFacet: map[hb.Facet]float64{}}
	if b, err := stats.BoxOf(m.bidReqs); err == nil {
		out.BidRequests = b
	}
	if b, err := stats.BoxOf(m.hbRel); err == nil {
		out.HBRelated = b
	}
	if b, err := stats.BoxOf(m.total); err == nil {
		out.Total = b
	}
	for f, sum := range m.sumByFacet {
		out.MeanByFacet[f] = sum / float64(max(1, m.cntByFacet[f]))
	}
	if m.passes > 0 && m.fanoutN > 0 {
		out.AmplificationVsWaterfall = (m.fanoutSum / float64(m.fanoutN)) / m.passes
	}
	return out
}
