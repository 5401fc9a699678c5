package headerbid_test

import (
	"context"
	"fmt"

	"headerbid"
)

// ExampleNewExperiment shows the streaming pipeline: one configurable
// entry point, pluggable sinks, incremental results.
func ExampleNewExperiment() {
	sum := headerbid.NewSummaryMetric()
	res, err := headerbid.NewExperiment(
		headerbid.WithSites(500),
		headerbid.WithSeed(1),
		headerbid.WithSink(headerbid.NewMetricSink(sum)),
	).Run(context.Background())
	if err != nil {
		fmt.Println("crawl failed:", err)
		return
	}
	fmt.Println(res.Summary.SitesCrawled, "sites crawled,",
		sum.Summary() == res.Summary, "sink agrees")
	// Output: 500 sites crawled, true sink agrees
}

// ExampleGenerateWorld shows the minimal generate→crawl→summarize flow
// over an explicitly generated world.
func ExampleGenerateWorld() {
	cfg := headerbid.DefaultWorldConfig(1)
	cfg.NumSites = 500
	world := headerbid.GenerateWorld(cfg)
	res, err := headerbid.NewExperiment(headerbid.WithWorld(world), headerbid.WithSeed(1)).Run(context.Background())
	if err != nil {
		fmt.Println("crawl failed:", err)
		return
	}
	sum := res.Summary
	fmt.Println(sum.SitesCrawled, "sites crawled,", sum.DemandPartners > 0, "partners seen")
	// Output: 500 sites crawled, true partners seen
}

// ExampleVisitSite shows single-page detection, the browser-extension
// workflow of the paper.
func ExampleVisitSite() {
	cfg := headerbid.DefaultWorldConfig(7)
	cfg.NumSites = 200
	world := headerbid.GenerateWorld(cfg)
	site := world.HBSites()[0]
	rec := headerbid.VisitSite(world, site, 0, headerbid.DefaultCrawlConfig(7))
	fmt.Println("detected:", rec.HB, "facet matches ground truth:", rec.Facet == site.Facet.Short())
	// Output: detected: true facet matches ground truth: true
}

// ExamplePartners shows registry access.
func ExamplePartners() {
	reg := headerbid.Partners()
	p, _ := reg.BySlug("appnexus")
	fmt.Println(reg.Len(), "partners;", p.Name, "bids from", p.Host)
	// Output: 84 partners; AppNexus bids from adnxs.com
}

// ExampleAdoptionOverYears runs the Figure 4 study in four lines.
func ExampleAdoptionOverYears() {
	archive := headerbid.NewArchive(1, 300)
	years := headerbid.AdoptionOverYears(archive)
	fmt.Println(len(years), "years; adoption grew:", years[len(years)-1].Rate > years[0].Rate)
	// Output: 6 years; adoption grew: true
}
