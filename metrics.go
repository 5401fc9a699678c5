package headerbid

import (
	"headerbid/internal/analysis"
)

// The per-figure metrics a command or example attaches on its own,
// re-exported from internal/analysis (internal packages are
// unimportable outside this module). Attach any of these with
// WithMetrics and read them back via their typed Result methods;
// NewFigureReport bundles every figure plus rendering.
type (
	// SummaryMetric is the Table-1 roll-up (name "summary").
	SummaryMetric = analysis.SummaryMetric
	// TopPartnersMetric is Figure 8 (name "top_partners").
	TopPartnersMetric = analysis.TopPartnersMetric
	// LatencyVsPartnerCountMetric is Figure 15 (name "latency_vs_partner_count").
	LatencyVsPartnerCountMetric = analysis.LatencyVsPartnerCountMetric
	// DegradationMetric summarizes failure-regime degradation: partner
	// error rates, retries, abandonment, quarantine tally (name
	// "degradation"). All-zero on a fault-free crawl.
	DegradationMetric = analysis.DegradationMetric
)

// NewSummaryMetric returns an empty Table-1 summary metric.
func NewSummaryMetric() *SummaryMetric { return analysis.NewSummary() }

// NewTopPartners returns an empty Figure-8 metric; k<=0 reports all.
func NewTopPartners(k int) *TopPartnersMetric { return analysis.NewTopPartners(k) }

// NewLatencyVsPartnerCount returns an empty Figure-15 metric
// (maxPartners<=0 uses the paper's 15).
func NewLatencyVsPartnerCount(maxPartners int) *LatencyVsPartnerCountMetric {
	return analysis.NewLatencyVsPartnerCount(maxPartners)
}

// NewDegradation returns an empty failure-degradation metric.
func NewDegradation() *DegradationMetric { return analysis.NewDegradation() }
