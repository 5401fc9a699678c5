package analysis

import (
	"fmt"

	"headerbid/internal/dataset"
)

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
// by result bags and equality tests.
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

// mergeArg asserts that other is the same concrete metric type as self,
// panicking with a uniform message otherwise (merging foreign metrics is
// a programming error, not a data error).
func mergeArg[T Metric](self Metric, other Metric) T {
	t, ok := other.(T)
	if !ok {
		panic(fmt.Sprintf("analysis: cannot merge %T into %T", other, self))
	}
	return t
}

// firstOf retains, per domain, the payload of the record with the
// smallest VisitDay — the streaming equivalent of dedupeByDomain. The
// crawl emits by day then rank, so "first record per domain in stream
// order" and "record with the minimum visit day" are the same record;
// unlike stream position, the minimum day survives arbitrary sharding,
// which is what makes dedupe-based metrics mergeable.
type firstOf[T any] struct {
	m map[string]firstEntry[T]
}

type firstEntry[T any] struct {
	day int
	val T
}

func newFirstOf[T any]() firstOf[T] {
	return firstOf[T]{m: make(map[string]firstEntry[T])}
}

// add records val for domain unless an earlier-day value is already held.
// Ties keep the incumbent, so within one shard the first-added record
// wins on (hypothetical) same-day duplicates.
func (f firstOf[T]) add(domain string, day int, val T) {
	if cur, ok := f.m[domain]; !ok || day < cur.day {
		f.m[domain] = firstEntry[T]{day: day, val: val}
	}
}

// merge folds another shard's choices in, keeping the smaller day per
// domain. A crawl visits each (domain, day) at most once, so no two
// shards ever tie and the merge is commutative and associative.
//
// The argument is consumed: a shard passed to merge must not be added
// to or merged again afterwards (the experiment discards shards once
// folded in). That is what lets an empty receiver — the common "first
// shard into the root" case — adopt the shard's map outright instead of
// re-inserting every entry through the grow-and-rehash ramp.
func (f *firstOf[T]) merge(o firstOf[T]) {
	if len(f.m) == 0 {
		f.m = o.m
		return
	}
	for dom, e := range o.m {
		if cur, ok := f.m[dom]; !ok || e.day < cur.day {
			f.m[dom] = e
		}
	}
}

// each calls fn for every retained (domain, value) pair, in map order —
// callers must aggregate order-insensitively.
func (f firstOf[T]) each(fn func(domain string, val T)) {
	for dom, e := range f.m {
		fn(dom, e.val)
	}
}

// len reports how many domains are retained.
func (f firstOf[T]) len() int { return len(f.m) }

// mergeSamples appends per-key sample slices map-wise — the shard merge
// for every map[K][]float64 accumulator. Downstream summaries (ECDF,
// Box) sort the samples, so append order never reaches the result.
// Keys the destination has never seen adopt the shard's slice instead
// of copying it (merge arguments are consumed, so the aliasing is
// invisible); the first shard folded into an empty root transfers its
// entire sample set without a single copy.
func mergeSamples[K comparable](dst, src map[K][]float64) {
	for k, xs := range src {
		if cur, ok := dst[k]; ok {
			dst[k] = append(cur, xs...)
		} else {
			dst[k] = xs
		}
	}
}

// mergeCounts adds per-key counters map-wise.
func mergeCounts[K comparable](dst, src map[K]int) {
	for k, n := range src {
		dst[k] += n
	}
}

// SummaryMetric is the Table-1 roll-up as a Metric: a mergeable wrapper
// around dataset.SummaryAccumulator.
type SummaryMetric struct {
	*dataset.SummaryAccumulator
}

// NewSummary returns an empty Table-1 summary metric.
func NewSummary() *SummaryMetric {
	return &SummaryMetric{SummaryAccumulator: dataset.NewSummaryAccumulator()}
}

// Name identifies the metric.
func (m *SummaryMetric) Name() string { return "summary" }

// NewShard returns a fresh empty summary accumulator.
func (m *SummaryMetric) NewShard() Metric { return NewSummary() }

// Merge folds a shard in.
func (m *SummaryMetric) Merge(other Metric) {
	m.SummaryAccumulator.Merge(mergeArg[*SummaryMetric](m, other).SummaryAccumulator)
}

// Snapshot returns the dataset.Summary over everything folded in.
func (m *SummaryMetric) Snapshot() any { return m.Summary() }
