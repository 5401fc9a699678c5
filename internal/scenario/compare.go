package scenario

import (
	"fmt"
	"io"
	"time"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/overlay"
	"headerbid/internal/stats"
)

// VariantResult holds one variant's headline measures — the columns of
// the comparison tables — plus any extra metrics the caller attached.
type VariantResult struct {
	Axis    string // owning axis ("baseline" for the implicit control)
	Name    string
	Overlay overlay.Overlay

	Summary dataset.Summary
	Stats   crawler.Stats

	// Bids/LateBids count client-observable bids (server-side bids are
	// excluded: lateness is unobservable there, as in Figure 18).
	Bids     int
	LateBids int

	// Latency summarizes the per-HB-site total-HB-latency distribution.
	LatencyMedianMS float64
	LatencyP90MS    float64
	FracOver1s      float64
	FracOver3s      float64

	// MedianCPM is the median winning CPM across auctions with winners.
	MedianCPM float64
	Winners   int

	// PartnersReached counts distinct demand partners observed anywhere;
	// MeanPartnersPerHBSite averages per-site pool sizes (first visit of
	// each HB site).
	PartnersReached       int
	MeanPartnersPerHBSite float64

	// Beacons / Requests total the tracking-pixel and overall request
	// footprint (the cookie-sync axis moves these).
	Beacons  int
	Requests int

	// Degradation measures (the fault axes move these). BidPosts counts
	// bid requests on the wire, retries included; BidErrors counts
	// transport-level bid failures; Retries counts wrapper
	// retransmissions; Abandoned counts bid requests never answered
	// within the page's life; Quarantined counts visits converted into
	// quarantine records by the crawler's panic boundary. TotalWinCPM is
	// the revenue proxy — the sum of winning CPMs across auctions — so
	// fault ladders read directly as revenue loss.
	BidPosts    int
	BidErrors   int
	Retries     int
	Abandoned   int
	Quarantined int
	TotalWinCPM float64

	// Extra holds the caller's per-variant metrics (via Sweep.Metrics),
	// merged across shards, in factory order.
	Extra []analysis.Metric

	Elapsed time.Duration
}

// LateBidRate is the late share of client-observable bids.
func (v *VariantResult) LateBidRate() float64 {
	if v.Bids == 0 {
		return 0
	}
	return float64(v.LateBids) / float64(v.Bids)
}

// BidErrorRate is the transport-failure share of bid posts on the wire.
func (v *VariantResult) BidErrorRate() float64 {
	if v.BidPosts == 0 {
		return 0
	}
	return float64(v.BidErrors) / float64(v.BidPosts)
}

// NoBidRate is the share of auctions that closed without a winner — the
// paper's "no ad to show" outcome, which failure regimes inflate.
func (v *VariantResult) NoBidRate() float64 {
	if v.Summary.Auctions == 0 {
		return 0
	}
	return 1 - float64(v.Winners)/float64(v.Summary.Auctions)
}

// RevenueDelta is the relative change of the winning-CPM sum against a
// baseline: the sweep's revenue-loss measure (negative = loss).
func (v *VariantResult) RevenueDelta(base *VariantResult) float64 {
	if base.TotalWinCPM == 0 {
		return 0
	}
	return (v.TotalWinCPM - base.TotalWinCPM) / base.TotalWinCPM
}

// AxisComparison groups one axis's variant results in axis order.
type AxisComparison struct {
	Axis     string
	Variants []VariantResult
}

// Comparison is a sweep's delta report: the shared-world parameters,
// the baseline control, and per-axis variant rows. All numbers are
// deterministic in (world seed, crawl seed, axes) — independent of
// worker count and of variant scheduling — because every accumulator
// obeys the analysis.Metric merge laws.
type Comparison struct {
	Sites    int
	Days     int
	Seed     int64
	Baseline VariantResult
	Axes     []AxisComparison
}

// Variants returns every variant result, baseline first, axes in order.
func (c *Comparison) Variants() []VariantResult {
	out := []VariantResult{c.Baseline}
	for _, ax := range c.Axes {
		out = append(out, ax.Variants...)
	}
	return out
}

// Render writes the comparison as delta tables, one per axis, each row
// contrasted against the shared baseline. Output is deterministic for
// deterministic inputs (fixed column formats, no map iteration).
func (c *Comparison) Render(w io.Writer) {
	fmt.Fprintf(w, "== Counterfactual sweep: %d sites, %d day(s), seed %d ==\n",
		c.Sites, c.Days, c.Seed)
	b := &c.Baseline
	fmt.Fprintf(w, "baseline: HB %d/%d sites, %d auctions, %d bids, late %.2f%%, median HB latency %.0fms, median CPM %.4f, partners %d\n",
		b.Summary.SitesWithHB, b.Summary.SitesCrawled, b.Summary.Auctions,
		b.Bids, 100*b.LateBidRate(), b.LatencyMedianMS, b.MedianCPM, b.PartnersReached)
	for _, ax := range c.Axes {
		fmt.Fprintf(w, "\n-- axis: %s --\n", ax.Axis)
		fmt.Fprintf(w, "%-16s %9s %9s %8s %8s %9s %8s %9s %8s %9s %8s %9s\n",
			"variant", "late%", "Δlate", "err%", "noBid%", "medLatMs", ">3s%", "medCPM", "Δrev%", "part/site", "reach", "beacons")
		renderRow(w, b, b, BaselineName)
		for i := range ax.Variants {
			v := &ax.Variants[i]
			renderRow(w, v, b, v.Name)
		}
	}
}

func renderRow(w io.Writer, v, base *VariantResult, name string) {
	fmt.Fprintf(w, "%-16s %8.2f%% %+8.2fpp %7.2f%% %7.1f%% %9.0f %7.1f%% %9.4f %+7.1f%% %9.2f %8d %9d\n",
		name,
		100*v.LateBidRate(), 100*(v.LateBidRate()-base.LateBidRate()),
		100*v.BidErrorRate(), 100*v.NoBidRate(),
		v.LatencyMedianMS, 100*v.FracOver3s, v.MedianCPM,
		100*v.RevenueDelta(base),
		v.MeanPartnersPerHBSite, v.PartnersReached, v.Beacons)
}

// ---------------------------------------------------------------------------
// Per-variant accumulation
// ---------------------------------------------------------------------------

// variantAgg folds one variant's records into every headline measure of
// a VariantResult. It is an analysis.Metric, so it rides the crawler's
// sharded fold path and obeys the merge laws (sample slices are
// summarized only at result time, after sorting; counters are sums;
// per-site values dedupe on minimum visit day, a record property that
// survives arbitrary sharding). Table 1 and the partners per HB site
// are two views over one site table.
type variantAgg struct {
	sites   *analysis.SiteTable
	sum     *analysis.SummaryMetric
	perSite *analysis.PartnersPerSiteMetric
	stats   crawler.Stats

	bids, late int
	latencies  []float64
	cpms       []float64
	winners    int

	partnerSet map[string]bool

	beacons, requests int

	bidPosts, bidErrors, retries, abandoned, quarantined int

	extra []analysis.Metric
}

func newVariantAgg(extra []analysis.Metric) *variantAgg {
	a := &variantAgg{
		sites:      analysis.NewSiteTable(),
		sum:        analysis.NewSummary(),
		perSite:    analysis.NewPartnersPerSite(),
		partnerSet: make(map[string]bool),
		extra:      extra,
	}
	a.sites.Share(a.sum, a.perSite)
	return a
}

// Name identifies the metric.
func (a *variantAgg) Name() string { return "scenario_variant" }

// Add folds one record in.
func (a *variantAgg) Add(r *dataset.SiteRecord) {
	a.sites.Add(r)
	a.sum.Add(r)
	a.stats.Add(r)
	a.requests += r.Traffic.Total()
	a.beacons += r.Traffic.Beacons
	a.bidPosts += r.Traffic.BidRequests
	a.retries += r.Retries
	a.abandoned += r.Abandoned
	if r.Quarantined {
		a.quarantined++
	}
	for _, n := range r.PartnerErrors {
		a.bidErrors += n
	}
	for _, m := range a.extra {
		m.Add(r)
	}
	if !r.HB {
		return
	}
	if r.TotalHBLatencyMS > 0 {
		a.latencies = append(a.latencies, r.TotalHBLatencyMS)
	}
	for _, p := range r.Partners {
		a.partnerSet[p] = true
	}
	for _, au := range r.Auctions {
		if au.Winner != "" && au.WinnerCPM > 0 {
			a.cpms = append(a.cpms, au.WinnerCPM)
			a.winners++
		}
		for _, b := range au.Bids {
			if b.Source == "s2s" {
				continue
			}
			a.bids++
			if b.Late {
				a.late++
			}
		}
	}
}

// NewShard returns a fresh empty accumulator (extra metrics shard too).
func (a *variantAgg) NewShard() analysis.Metric {
	extra := make([]analysis.Metric, len(a.extra))
	for i, m := range a.extra {
		extra[i] = m.NewShard()
	}
	return newVariantAgg(extra)
}

// Merge folds a shard in.
func (a *variantAgg) Merge(other analysis.Metric) {
	o, ok := other.(*variantAgg)
	if !ok {
		panic(fmt.Sprintf("scenario: cannot merge %T into %T", other, a))
	}
	a.sites.Merge(o.sites)
	a.sum.Merge(o.sum)
	a.stats.Merge(o.stats)
	a.bids += o.bids
	a.late += o.late
	a.latencies = append(a.latencies, o.latencies...)
	a.cpms = append(a.cpms, o.cpms...)
	a.winners += o.winners
	for p := range o.partnerSet {
		a.partnerSet[p] = true
	}
	a.beacons += o.beacons
	a.requests += o.requests
	a.bidPosts += o.bidPosts
	a.bidErrors += o.bidErrors
	a.retries += o.retries
	a.abandoned += o.abandoned
	a.quarantined += o.quarantined
	for i, m := range a.extra {
		m.Merge(o.extra[i])
	}
}

// Snapshot returns the result with empty axis labels (the sweep fills
// them in via result).
func (a *variantAgg) Snapshot() any { return a.result("", "", overlay.Overlay{}, 0) }

// result finalizes the variant's headline measures.
func (a *variantAgg) result(axis, name string, ov overlay.Overlay, elapsed time.Duration) VariantResult {
	res := VariantResult{
		Axis: axis, Name: name, Overlay: ov,
		Summary:         a.sum.Summary(),
		Stats:           a.stats,
		Bids:            a.bids,
		LateBids:        a.late,
		Winners:         a.winners,
		PartnersReached: len(a.partnerSet),
		Beacons:         a.beacons,
		Requests:        a.requests,
		BidPosts:        a.bidPosts,
		BidErrors:       a.bidErrors,
		Retries:         a.retries,
		Abandoned:       a.abandoned,
		Quarantined:     a.quarantined,
		Extra:           a.extra,
		Elapsed:         elapsed,
	}
	if len(a.latencies) > 0 {
		e := stats.NewECDF(a.latencies)
		res.LatencyMedianMS = e.Quantile(0.5)
		res.LatencyP90MS = e.Quantile(0.9)
		res.FracOver1s = 1 - e.P(1000)
		res.FracOver3s = 1 - e.P(3000)
	}
	if len(a.cpms) > 0 {
		e := stats.NewECDF(a.cpms)
		res.MedianCPM = e.Quantile(0.5)
		// Summed in sorted order, not shard-merge order, so the total
		// (and a zero revenue delta's sign) is the same for any worker
		// count.
		for _, c := range e.Values() {
			res.TotalWinCPM += c
		}
	}
	if ps := a.perSite.Result(); ps.SiteCount > 0 {
		partnerSum := 0.0 // a sum of small integers, exact in any order
		for _, n := range ps.ECDF.Values() {
			partnerSum += n
		}
		res.MeanPartnersPerHBSite = partnerSum / float64(ps.SiteCount)
	}
	return res
}
