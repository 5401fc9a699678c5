// Command hbadoption runs the historical adoption study (Figure 4):
// static analysis of yearly top-1k archive snapshots, 2014-2019. With
// -live N it also measures "present-day" adoption the dynamic way — a
// streaming Experiment over an N-site synthetic world — so the static
// and rendered methodologies can be compared side by side.
//
// Usage:
//
//	hbadoption -top 1000 -seed 1
//	hbadoption -top 1000 -seed 1 -live 2000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"headerbid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hbadoption over the given arguments and output streams. It
// returns the exit status: 0 on success, 1 when the live crawl fails, 2
// on a usage error, 130 when an interrupt cuts the live crawl short
// (after saying so), as hbcrawl and hbsweep do.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbadoption", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top  = fs.Int("top", 1000, "publishers per yearly list")
		seed = fs.Int64("seed", 1, "archive seed")
		live = fs.Int("live", 0, "also crawl an N-site world for rendered present-day adoption (0 = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	archive := headerbid.NewArchive(*seed, *top)
	years := headerbid.AdoptionOverYears(archive)

	fmt.Fprintln(stdout, "Figure 4: Header Bidding adoption, yearly top lists (static analysis)")
	for _, y := range years {
		fmt.Fprintf(stdout, "%d  sites=%-5d detected=%-4d rate=%5.1f%%  (ground truth %5.1f%%)\n",
			y.Year, y.Sites, y.Detected, 100*y.Rate, 100*y.TrueRate)
	}

	if *live > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		res, err := headerbid.NewExperiment(
			headerbid.WithSites(*live),
			headerbid.WithSeed(*seed),
		).Run(ctx)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "hbadoption: live crawl interrupted after %d visits\n", res.Stats.Visits)
			return 130
		}
		if err != nil {
			fmt.Fprintf(stderr, "hbadoption: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nrendered crawl (%d sites, dynamic detection): rate=%5.1f%%\n",
			res.Summary.SitesCrawled, 100*res.Summary.AdoptionRate())
	}
	return 0
}
