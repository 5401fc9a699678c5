package analysis

import (
	"sort"

	"headerbid/internal/dataset"
)

// DegradationResult summarizes how a crawl degraded under failure: the
// fault-injection counterpart of the paper's §6 loss analysis. All
// fields are zero for a fault-free crawl.
type DegradationResult struct {
	Visits      int
	Quarantined int // visits converted to quarantine records by panic isolation
	Retries     int // wrapper retransmissions seen on the wire
	Abandoned   int // bid requests never answered within the page's life
	BidPosts    int // bid requests on the wire, retries included
	BidErrors   int // transport-level bid failures
	// PartnerErrors ranks partners by transport-failure count,
	// descending (count ties break by slug).
	PartnerErrors []PartnerErrorCount
}

// PartnerErrorCount is one partner's transport-failure tally.
type PartnerErrorCount struct {
	Slug   string
	Errors int
}

// DegradationMetric accumulates DegradationResult incrementally.
type DegradationMetric struct {
	state
	visits, quarantined int
	retries, abandoned  int
	bidPosts, bidErrors int
	errs                map[string]int // lazy: fault-free crawls never allocate it
}

// NewDegradation creates the accumulator.
func NewDegradation() *DegradationMetric {
	m := &DegradationMetric{}
	return hold(m, (*sum)(&m.visits), (*sum)(&m.quarantined), (*sum)(&m.retries), (*sum)(&m.abandoned),
		(*sum)(&m.bidPosts), (*sum)(&m.bidErrors), (*tally[string, int])(&m.errs))
}

// Name identifies the metric.
func (m *DegradationMetric) Name() string { return "degradation" }

// Add folds one record in.
func (m *DegradationMetric) Add(r *dataset.SiteRecord) {
	m.visits++
	if r.Quarantined {
		m.quarantined++
	}
	m.retries += r.Retries
	m.abandoned += r.Abandoned
	m.bidPosts += r.Traffic.BidRequests
	for slug, n := range r.PartnerErrors {
		m.bidErrors += n
		if m.errs == nil {
			m.errs = make(map[string]int, 4)
		}
		m.errs[slug] += n
	}
}

// NewShard returns a fresh empty accumulator.
func (m *DegradationMetric) NewShard() Metric { return NewDegradation() }

// Snapshot returns the DegradationResult.
func (m *DegradationMetric) Snapshot() any { return m.Result() }

// Result finalizes the summary (the partner ranking is sorted here, so
// the result is independent of fold and merge order).
func (m *DegradationMetric) Result() DegradationResult {
	res := DegradationResult{
		Visits: m.visits, Quarantined: m.quarantined, Retries: m.retries,
		Abandoned: m.abandoned, BidPosts: m.bidPosts, BidErrors: m.bidErrors,
	}
	if len(m.errs) > 0 {
		res.PartnerErrors = make([]PartnerErrorCount, 0, len(m.errs))
		for slug, n := range m.errs {
			res.PartnerErrors = append(res.PartnerErrors, PartnerErrorCount{Slug: slug, Errors: n})
		}
		sort.Slice(res.PartnerErrors, func(i, j int) bool {
			a, b := res.PartnerErrors[i], res.PartnerErrors[j]
			if a.Errors != b.Errors {
				return a.Errors > b.Errors
			}
			return a.Slug < b.Slug
		})
	}
	return res
}
