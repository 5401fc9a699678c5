// Command hbdetect inspects a single site the way the paper's browser
// extension does: one clean-slate visit with HBDetector attached, then a
// human-readable dump of everything the detector observed — verdict,
// facet, partners, auctions, bids, late bids, latencies, traffic.
//
// Usage:
//
//	hbdetect -sites 2000 -seed 1 -rank 7        # visit the rank-7 site
//	hbdetect -sites 2000 -seed 1 -domain site00012.example
//	hbdetect -sites 2000 -facet hybrid          # first site of that facet
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"headerbid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hbdetect over the given arguments and output streams. It
// returns the exit status: 0 after a visit, with header bidding or
// without, 1 when no site matches or the visit fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbdetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites  = fs.Int("sites", 2000, "world size")
		seed   = fs.Int64("seed", 1, "world seed")
		rank   = fs.Int("rank", 0, "visit the site with this rank")
		domain = fs.String("domain", "", "visit this domain")
		facet  = fs.String("facet", "", "visit the first HB site with this facet (client|server|hybrid)")
		day    = fs.Int("day", 0, "crawl day (changes the visit's random draws)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hbdetect: "+format+"\n", a...)
		return 1
	}

	cfg := headerbid.DefaultWorldConfig(*seed)
	cfg.NumSites = *sites
	world := headerbid.GenerateWorld(cfg)

	site := pickSite(world, *rank, *domain, *facet)
	if site == nil {
		return fail("no matching site (try -rank, -domain or -facet)")
	}

	fmt.Fprintf(stdout, "site    %s (rank %d)\n", site.Domain, site.Rank)
	fmt.Fprintf(stdout, "truth   hb=%v facet=%s partners=%v slots=%d timeout=%dms\n\n",
		site.HB, site.Facet.Short(), site.Partners, len(site.AdUnits), site.TimeoutMS)

	// A single-site, single-day Experiment: the same streaming pipeline
	// the full crawl uses, filtered down to one visit.
	var recs []*headerbid.SiteRecord
	_, err := headerbid.NewExperiment(
		headerbid.WithWorld(world),
		headerbid.WithSeed(*seed),
		headerbid.WithFirstDay(*day),
		headerbid.WithSiteFilter(func(s *headerbid.Site) bool { return s.Domain == site.Domain }),
		headerbid.WithSink(headerbid.SinkFunc(func(v headerbid.Visit) error {
			recs = append(recs, v.Record)
			return nil
		})),
	).Run(context.Background())
	if err != nil || len(recs) != 1 {
		return fail("visit failed: err=%v records=%d", err, len(recs))
	}
	rec := recs[0]

	fmt.Fprintf(stdout, "detected      hb=%v facet=%s libraries=%v\n", rec.HB, rec.Facet, rec.Libraries)
	fmt.Fprintf(stdout, "partners      %v\n", rec.Partners)
	fmt.Fprintf(stdout, "winners       %v\n", rec.Winners)
	fmt.Fprintf(stdout, "hb latency    %.0f ms\n", rec.TotalHBLatencyMS)
	fmt.Fprintf(stdout, "slots         %d auctioned\n", rec.AdSlotsAuctioned)
	fmt.Fprintf(stdout, "traffic       bid=%d hosted=%d adsrv=%d creative=%d beacon=%d script=%d other=%d\n\n",
		rec.Traffic.BidRequests, rec.Traffic.HostedCalls, rec.Traffic.AdServer,
		rec.Traffic.Creatives, rec.Traffic.Beacons, rec.Traffic.Scripts, rec.Traffic.Other)

	for _, a := range rec.Auctions {
		fmt.Fprintf(stdout, "auction %-28s unit=%-24s size=%-8s dur=%6.0fms bids=%d",
			a.ID, a.AdUnit, a.Size, a.DurationMS, len(a.Bids))
		if a.Winner != "" {
			fmt.Fprintf(stdout, "  winner=%s@%.4f", a.Winner, a.WinnerCPM)
		}
		if a.Failed {
			fmt.Fprintf(stdout, "  RENDER-FAILED")
		}
		fmt.Fprintln(stdout)
		for _, b := range a.Bids {
			late := ""
			if b.Late {
				late = "  LATE"
			}
			fmt.Fprintf(stdout, "    %-16s %8.4f CPM  %-9s %6.0fms  %s%s\n",
				b.Bidder, b.CPM, b.Size, b.LatencyMS, b.Source, late)
		}
	}
	if !rec.HB {
		fmt.Fprintln(stdout, "no header bidding detected on this page")
	}
	return 0
}

func pickSite(w *headerbid.World, rank int, domain, facet string) *headerbid.Site {
	switch {
	case domain != "":
		s, ok := w.SiteByDomain(domain)
		if !ok {
			return nil
		}
		return s
	case rank > 0:
		for _, s := range w.Sites {
			if s.Rank == rank {
				return s
			}
		}
		return nil
	case facet != "":
		for _, s := range w.HBSites() {
			if s.Facet.Short() == facet {
				return s
			}
		}
		return nil
	default:
		hb := w.HBSites()
		if len(hb) == 0 {
			return nil
		}
		return hb[0]
	}
}
