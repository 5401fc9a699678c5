package analysis

import (
	"maps"
	"slices"
	"sort"

	"headerbid/internal/hb"
	"headerbid/internal/wire"
)

// A Codec is a Metric whose in-progress accumulator state round-trips
// through the snapshot wire format (internal/snapshot). The contract,
// enforced by the snapshot determinism suite for every registered
// metric:
//
//   - EncodeState writes the complete accumulator state — configuration
//     parameters included — as a pure function of that state: map
//     iteration never reaches the bytes (keys are written sorted), so
//     equal states encode to equal bytes and
//     encode(decode(encode(m))) == encode(m) holds byte for byte.
//   - DecodeState replaces the receiver's state with the serialized
//     one. The decoded metric is a full Metric: Add, Merge (in either
//     role) and Snapshot behave exactly as on the original, which is
//     what makes shard files foldable in any order or grouping.
//
// Dependencies that are not state — the partner registry handed to the
// popularity metrics — are not serialized; the snapshot registry's
// constructors supply them.
type Codec interface {
	Metric
	EncodeState(w *wire.Writer)
	DecodeState(r *wire.Reader) error
}

// ---------------------------------------------------------------------------
// Shared encode/decode helpers. Every map is written in sorted key
// order; every decoded empty slice is nil — both are what keeps the
// encoding a pure function of accumulated state.
// ---------------------------------------------------------------------------

func encodeStringCounts(w *wire.Writer, m map[string]int) {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	w.Uvarint(uint64(len(ks)))
	for _, k := range ks {
		w.String(k)
		w.Int(m[k])
	}
}

func decodeStringCounts(r *wire.Reader) map[string]int {
	n := r.Len()
	m := make(map[string]int, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.Int()
	}
	return m
}

func encodeStringSamples(w *wire.Writer, m map[string][]float64) {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	w.Uvarint(uint64(len(ks)))
	for _, k := range ks {
		w.String(k)
		w.Float64s(m[k])
	}
}

func decodeStringSamples(r *wire.Reader) map[string][]float64 {
	n := r.Len()
	m := make(map[string][]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.Float64s()
	}
	return m
}

func encodeIntSamples(w *wire.Writer, m map[int][]float64) {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	w.Uvarint(uint64(len(ks)))
	for _, k := range ks {
		w.Int(k)
		w.Float64s(m[k])
	}
}

func decodeIntSamples(r *wire.Reader) map[int][]float64 {
	n := r.Len()
	m := make(map[int][]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Int()
		m[k] = r.Float64s()
	}
	return m
}

func sortedSizes[T any](m map[hb.Size]T) []hb.Size {
	ks := make([]hb.Size, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].W != ks[j].W {
			return ks[i].W < ks[j].W
		}
		return ks[i].H < ks[j].H
	})
	return ks
}

func sortedFacets[T any](m map[hb.Facet]T) []hb.Facet {
	ks := make([]hb.Facet, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// encodeSet writes a string set as its sorted members.
func encodeSet(w *wire.Writer, m map[string]bool) { w.Strings(slices.Sorted(maps.Keys(m))) }

func decodeSet(r *wire.Reader) map[string]bool {
	ks := r.Strings()
	m := make(map[string]bool, len(ks))
	for _, k := range ks {
		m[k] = true
	}
	return m
}

// ---------------------------------------------------------------------------
// Per-metric codecs, in the order the metrics are defined across
// metric.go / analysis.go / latency.go / slots.go / traffic.go /
// degradation.go. The first-visit metrics that keep no state beside
// their site table use siteView's promoted codec (sites.go).
// ---------------------------------------------------------------------------

// EncodeState implements Codec.
func (m *SummaryMetric) EncodeState(w *wire.Writer) {
	m.siteView.EncodeState(w)
	encodeSet(w, m.partners)
	w.Int(m.auctions)
	w.Int(m.bids)
	w.Int(m.maxDay)
}

// DecodeState implements Codec.
func (m *SummaryMetric) DecodeState(r *wire.Reader) error {
	m.siteView.DecodeState(r)
	m.partners = decodeSet(r)
	m.auctions = r.Int()
	m.bids = r.Int()
	m.maxDay = r.Int()
	return r.Err()
}

// EncodeState implements Codec.
func (m *TopPartnersMetric) EncodeState(w *wire.Writer) {
	w.Int(m.k)
	m.siteView.EncodeState(w)
}

// DecodeState implements Codec.
func (m *TopPartnersMetric) DecodeState(r *wire.Reader) error {
	m.k = r.Int()
	return m.siteView.DecodeState(r)
}

// EncodeState implements Codec.
func (m *UniquePartnersMetric) EncodeState(w *wire.Writer) { encodeSet(w, m.set) }

// DecodeState implements Codec.
func (m *UniquePartnersMetric) DecodeState(r *wire.Reader) error {
	m.set = decodeSet(r)
	return r.Err()
}

// EncodeState implements Codec.
func (m *PartnerCombosMetric) EncodeState(w *wire.Writer) {
	w.Int(m.k)
	m.siteView.EncodeState(w)
}

// DecodeState implements Codec.
func (m *PartnerCombosMetric) DecodeState(r *wire.Reader) error {
	m.k = r.Int()
	return m.siteView.DecodeState(r)
}

// EncodeState implements Codec. The facet-keyed maps are fixed to
// hb.Facets() at construction, so they are written positionally in that
// order, no keys.
func (m *PartnersPerFacetMetric) EncodeState(w *wire.Writer) {
	w.Int(m.k)
	for _, f := range hb.Facets() {
		encodeStringCounts(w, m.counts[f])
		w.Int(m.totals[f])
	}
}

// DecodeState implements Codec.
func (m *PartnersPerFacetMetric) DecodeState(r *wire.Reader) error {
	m.k = r.Int()
	m.counts = make(map[hb.Facet]map[string]int, 3)
	m.totals = make(map[hb.Facet]int, 3)
	for _, f := range hb.Facets() {
		m.counts[f] = decodeStringCounts(r)
		if t := r.Int(); t != 0 {
			m.totals[f] = t
		}
	}
	return r.Err()
}

// EncodeState implements Codec.
func (a *LatencyAccumulator) EncodeState(w *wire.Writer) { w.Float64s(a.xs) }

// DecodeState implements Codec.
func (a *LatencyAccumulator) DecodeState(r *wire.Reader) error {
	a.xs = r.Float64s()
	return r.Err()
}

// EncodeState implements Codec.
func (m *LatencyVsRankMetric) EncodeState(w *wire.Writer) { m.b.EncodeState(w) }

// DecodeState implements Codec.
func (m *LatencyVsRankMetric) DecodeState(r *wire.Reader) error { return m.b.DecodeState(r) }

// EncodeState implements Codec.
func (m *PartnerLatenciesMetric) EncodeState(w *wire.Writer) {
	encodeStringSamples(w, m.byPartner)
}

// DecodeState implements Codec.
func (m *PartnerLatenciesMetric) DecodeState(r *wire.Reader) error {
	m.byPartner = decodeStringSamples(r)
	return r.Err()
}

// EncodeState implements Codec.
func (m *LatencyVsPartnerCountMetric) EncodeState(w *wire.Writer) {
	w.Int(m.maxPartners)
	m.siteView.EncodeState(w)
	encodeIntSamples(w, m.byCount)
}

// DecodeState implements Codec.
func (m *LatencyVsPartnerCountMetric) DecodeState(r *wire.Reader) error {
	m.maxPartners = r.Int()
	m.siteView.DecodeState(r)
	m.byCount = decodeIntSamples(r)
	return r.Err()
}

// EncodeState implements Codec. The registry is a constructor
// dependency, not state — only the binner is serialized.
func (m *LatencyVsPopularityMetric) EncodeState(w *wire.Writer) { m.b.EncodeState(w) }

// DecodeState implements Codec.
func (m *LatencyVsPopularityMetric) DecodeState(r *wire.Reader) error { return m.b.DecodeState(r) }

// EncodeState implements Codec.
func (m *LateBidsMetric) EncodeState(w *wire.Writer) {
	w.Float64s(m.shares)
	w.Int(m.totalAuctions)
	w.Int(m.withLate)
	w.Int(m.one)
	w.Int(m.twoPlus)
	w.Int(m.fourPlus)
}

// DecodeState implements Codec.
func (m *LateBidsMetric) DecodeState(r *wire.Reader) error {
	m.shares = r.Float64s()
	m.totalAuctions = r.Int()
	m.withLate = r.Int()
	m.one = r.Int()
	m.twoPlus = r.Int()
	m.fourPlus = r.Int()
	return r.Err()
}

// EncodeState implements Codec.
func (m *LateBidsPerPartnerMetric) EncodeState(w *wire.Writer) {
	w.Int(m.k)
	w.Int(m.minBids)
	encodeStringCounts(w, m.bids)
	encodeStringCounts(w, m.late)
}

// DecodeState implements Codec.
func (m *LateBidsPerPartnerMetric) DecodeState(r *wire.Reader) error {
	m.k = r.Int()
	m.minBids = r.Int()
	m.bids = decodeStringCounts(r)
	m.late = decodeStringCounts(r)
	return r.Err()
}

// EncodeState implements Codec.
func (m *LatencyVsSlotsMetric) EncodeState(w *wire.Writer) {
	w.Int(m.maxSlots)
	encodeIntSamples(w, m.byCount)
}

// DecodeState implements Codec.
func (m *LatencyVsSlotsMetric) DecodeState(r *wire.Reader) error {
	m.maxSlots = r.Int()
	m.byCount = decodeIntSamples(r)
	return r.Err()
}

// EncodeState implements Codec. Like PartnersPerFacetMetric, the outer
// facet maps are fixed to hb.Facets() and written positionally.
func (m *SlotSizesMetric) EncodeState(w *wire.Writer) {
	w.Int(m.k)
	for _, f := range hb.Facets() {
		counts := m.counts[f]
		sizes := sortedSizes(counts)
		w.Uvarint(uint64(len(sizes)))
		for _, sz := range sizes {
			w.Int(sz.W)
			w.Int(sz.H)
			w.Int(counts[sz])
		}
		w.Int(m.totals[f])
	}
}

// DecodeState implements Codec.
func (m *SlotSizesMetric) DecodeState(r *wire.Reader) error {
	m.k = r.Int()
	m.counts = make(map[hb.Facet]map[hb.Size]int, 3)
	m.totals = make(map[hb.Facet]int, 3)
	for _, f := range hb.Facets() {
		n := r.Len()
		counts := make(map[hb.Size]int, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			var sz hb.Size
			sz.W = r.Int()
			sz.H = r.Int()
			counts[sz] = r.Int()
		}
		m.counts[f] = counts
		if t := r.Int(); t != 0 {
			m.totals[f] = t
		}
	}
	return r.Err()
}

// EncodeState implements Codec. byFacet keys are dynamic (whatever
// facets produced bids), so they are written sorted with explicit keys.
func (m *PriceCDFMetric) EncodeState(w *wire.Writer) {
	fs := sortedFacets(m.byFacet)
	w.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.Int(int(f))
		w.Float64s(m.byFacet[f])
	}
	w.Int(m.over)
	w.Int(m.total)
}

// DecodeState implements Codec.
func (m *PriceCDFMetric) DecodeState(r *wire.Reader) error {
	n := r.Len()
	m.byFacet = make(map[hb.Facet][]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := hb.Facet(r.Int())
		m.byFacet[f] = r.Float64s()
	}
	m.over = r.Int()
	m.total = r.Int()
	return r.Err()
}

// EncodeState implements Codec.
func (m *PricePerSizeMetric) EncodeState(w *wire.Writer) {
	w.Int(m.minBids)
	sizes := sortedSizes(m.bySize)
	w.Uvarint(uint64(len(sizes)))
	for _, sz := range sizes {
		w.Int(sz.W)
		w.Int(sz.H)
		w.Float64s(m.bySize[sz])
	}
}

// DecodeState implements Codec.
func (m *PricePerSizeMetric) DecodeState(r *wire.Reader) error {
	m.minBids = r.Int()
	n := r.Len()
	m.bySize = make(map[hb.Size][]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var sz hb.Size
		sz.W = r.Int()
		sz.H = r.Int()
		m.bySize[sz] = r.Float64s()
	}
	return r.Err()
}

// EncodeState implements Codec.
func (m *PriceVsPopularityMetric) EncodeState(w *wire.Writer) { m.b.EncodeState(w) }

// DecodeState implements Codec.
func (m *PriceVsPopularityMetric) DecodeState(r *wire.Reader) error { return m.b.DecodeState(r) }

// EncodeState implements Codec.
func (m *TrafficMetric) EncodeState(w *wire.Writer) {
	w.Float64(m.passes)
	w.Float64s(m.bidReqs)
	w.Float64s(m.hbRel)
	w.Float64s(m.total)
	fs := sortedFacets(m.sumByFacet)
	w.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.Int(int(f))
		w.Float64(m.sumByFacet[f])
	}
	cs := sortedFacets(m.cntByFacet)
	w.Uvarint(uint64(len(cs)))
	for _, f := range cs {
		w.Int(int(f))
		w.Int(m.cntByFacet[f])
	}
	w.Float64(m.fanoutSum)
	w.Int(m.fanoutN)
}

// DecodeState implements Codec.
func (m *TrafficMetric) DecodeState(r *wire.Reader) error {
	m.passes = r.Float64()
	m.bidReqs = r.Float64s()
	m.hbRel = r.Float64s()
	m.total = r.Float64s()
	n := r.Len()
	m.sumByFacet = make(map[hb.Facet]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := hb.Facet(r.Int())
		m.sumByFacet[f] = r.Float64()
	}
	n = r.Len()
	m.cntByFacet = make(map[hb.Facet]int, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := hb.Facet(r.Int())
		m.cntByFacet[f] = r.Int()
	}
	m.fanoutSum = r.Float64()
	m.fanoutN = r.Int()
	return r.Err()
}

// EncodeState implements Codec.
func (m *DegradationMetric) EncodeState(w *wire.Writer) {
	w.Int(m.res.Visits)
	w.Int(m.res.Quarantined)
	w.Int(m.res.Retries)
	w.Int(m.res.Abandoned)
	w.Int(m.res.BidPosts)
	w.Int(m.res.BidErrors)
	encodeStringCounts(w, m.errs)
}

// DecodeState implements Codec.
func (m *DegradationMetric) DecodeState(r *wire.Reader) error {
	m.res = DegradationResult{
		Visits:      r.Int(),
		Quarantined: r.Int(),
		Retries:     r.Int(),
		Abandoned:   r.Int(),
		BidPosts:    r.Int(),
		BidErrors:   r.Int(),
	}
	// Preserve the lazy-allocation invariant: fault-free state decodes
	// back to a nil map, and re-encodes to the same zero-length prefix.
	if errs := decodeStringCounts(r); len(errs) > 0 {
		m.errs = errs
	} else {
		m.errs = nil
	}
	return r.Err()
}
