package analysis

import "headerbid/internal/dataset"

// A Metric is a streaming, mergeable accumulator over site records — the
// unit of the metrics API. Every figure-level analysis in this package
// is a Metric, and none takes a record slice.
//
// The contract every Metric must satisfy (and the metric-law tests
// enforce for each implementation):
//
//   - Add folds one record into the accumulator. Implementations must be
//     order-insensitive up to the result: folding the same record
//     multiset in any order yields the same Snapshot. (Analyses of "the
//     first record per domain" key on the minimum VisitDay, which
//     coincides with stream order — crawls emit by day, then rank —
//     while staying order-free.)
//   - NewShard returns a fresh, empty accumulator of the same kind and
//     configuration, for independent per-worker accumulation. Shards
//     share no state with their parent or each other; Add on distinct
//     shards is safe from distinct goroutines without locks.
//   - Merge folds a shard's state into the receiver. Merging a record
//     multiset split across shards, in any merge order or grouping, is
//     result-identical to a single accumulator seeing every record
//     (commutativity + associativity — what makes shard scheduling
//     invisible in the output).
//   - Snapshot returns the metric's current figure-level result. It must
//     not mutate accumulation state; Add/Merge may continue afterwards.
//
// Concrete metrics also expose a typed result method (e.g.
// (*TopPartnersMetric).Result); Snapshot is the uniform access path used
// by result bags and equality tests. Every metric in this package gets
// Merge and the Codec methods from its embedded state (state.go): its
// constructor lists the metric's state once, as accumulators.
type Metric interface {
	// Name identifies the metric inside a run's results bag.
	Name() string
	// Add folds one record into the accumulator.
	Add(r *dataset.SiteRecord)
	// NewShard returns a fresh empty accumulator with the same
	// configuration.
	NewShard() Metric
	// Merge folds a shard produced by NewShard back in. It panics if
	// other is a different kind of metric.
	Merge(other Metric)
	// Snapshot returns the figure-level result over everything folded in
	// so far.
	Snapshot() any
}

// SummaryMetric is the Table-1 roll-up as a Metric. Sites crawled and
// sites with HB are the lengths of its site table's two maps; auctions,
// bids, crawl days and demand partners are folded per record.
type SummaryMetric struct {
	state
	siteView
	auctions, bids int
	maxDay         int
	partners       map[string]bool
}

// NewSummary returns an empty Table-1 summary metric.
func NewSummary() *SummaryMetric {
	m := &SummaryMetric{siteView: ownSites(), maxDay: -1, partners: make(map[string]bool)}
	return hold(m, &m.siteView, (*strset)(&m.partners), (*sum)(&m.auctions), (*sum)(&m.bids), (*peak)(&m.maxDay))
}

// Name identifies the metric.
func (m *SummaryMetric) Name() string { return "summary" }

// Add folds one record in.
func (m *SummaryMetric) Add(r *dataset.SiteRecord) {
	m.siteView.Add(r)
	m.maxDay = max(m.maxDay, r.VisitDay)
	m.auctions += len(r.Auctions)
	for _, au := range r.Auctions {
		m.bids += len(au.Bids)
	}
	for _, p := range r.Partners {
		m.partners[p] = true
	}
	for _, p := range r.Winners {
		m.partners[p] = true
	}
}

// NewShard returns a fresh empty summary accumulator.
func (m *SummaryMetric) NewShard() Metric { return NewSummary() }

// Snapshot returns the dataset.Summary over everything folded in.
func (m *SummaryMetric) Snapshot() any { return m.Summary() }

// Summary returns the Table-1 roll-up over everything folded in.
func (m *SummaryMetric) Summary() dataset.Summary {
	return dataset.Summary{
		SitesCrawled:   len(m.sites.first),
		SitesWithHB:    len(m.sites.hb),
		Auctions:       m.auctions,
		Bids:           m.bids,
		DemandPartners: len(m.partners),
		CrawlDays:      m.maxDay + 1,
	}
}
