// Command hbmerge is the reduce step of the distributed crawl: it folds
// the shard files written by `hbcrawl -shard i/n -shard-out ...` back
// into the single-process result. Shards may be given in any order and
// any grouping — a file written by -merge-out from a partial fold is
// itself a valid input — and the rendered figure report is byte-exactly
// what one `hbcrawl -sites N -report` run over the same seed produces.
//
// The fold refuses files that are not slices of one crawl: a format
// version this build does not read, a different world seed, a different
// shard count, or overlapping shard coverage. By default every shard
// 0..n-1 must be present; -partial renders whatever coverage the inputs
// provide (useful while a fleet is still crawling), and -merge-out
// writes the folded state back out as a combined shard file for later
// completion. With -merge-out - the state goes to stdout in place of
// the report, so -summary is refused with it.
//
// Usage:
//
//	for i in 0 1 2 3; do hbcrawl -sites 35000 -shard $i/4 -q -o /dev/null -shard-out shard$i.hbs; done
//	hbmerge shard0.hbs shard1.hbs shard2.hbs shard3.hbs
//	hbmerge -partial -merge-out day1.hbs shard0.hbs shard1.hbs
//	hbmerge -summary shard*.hbs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"headerbid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hbmerge over the given arguments and output streams. It
// returns the exit status: 0 on success, 1 when a shard file or the
// fold is refused, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbmerge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		partial  = fs.Bool("partial", false, "allow rendering an incomplete fold (missing shards reported on stderr)")
		summary  = fs.Bool("summary", false, "print only the Table-1 summary instead of the full figure report")
		mergeOut = fs.String("merge-out", "", "write the folded metric state to this combined shard file ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "hbmerge: "+format+"\n", a...) }
	fail := func(format string, a ...any) int {
		logf(format, a...)
		return 1
	}

	paths := fs.Args()
	switch {
	case len(paths) == 0:
		logf("no shard files given (usage: hbmerge [flags] shard0.hbs shard1.hbs ...)")
		return 2
	case *summary && *mergeOut == "-":
		logf("-summary and -merge-out - both write to stdout; use one of them")
		return 2
	}

	var fold headerbid.ShardFold
	for _, path := range paths {
		h, ms, err := headerbid.ReadShardFile(path)
		if err != nil {
			return fail("%v", err)
		}
		if err := fold.Add(h, ms); err != nil {
			return fail("%s: %v", path, err)
		}
	}

	h := fold.Header()
	if !fold.Complete() {
		if !*partial {
			return fail("incomplete fold: %d/%d shards covered, missing %v (use -partial to render anyway)",
				len(h.Shards), h.ShardCount, fold.Missing())
		}
		logf("partial fold: %d/%d shards, missing %v", len(h.Shards), h.ShardCount, fold.Missing())
	}
	logf("folded %d file(s): seed %d, %d/%d shard(s)", len(paths), h.Seed, len(h.Shards), h.ShardCount)

	switch *mergeOut {
	case "":
	case "-":
		if err := headerbid.MarshalShard(stdout, h, fold.Metrics()); err != nil {
			return fail("%v", err)
		}
	default:
		if err := headerbid.WriteShardFile(*mergeOut, h, fold.Metrics()); err != nil {
			return fail("%v", err)
		}
		logf("folded state written to %s", *mergeOut)
	}

	m, ok := fold.Get("figure_report")
	if !ok {
		return fail("shard files carry no figure_report metric")
	}
	fr := m.(*headerbid.FigureReport)
	if *summary {
		s := fr.Summary()
		fmt.Fprintf(stdout, "sites crawled    %d\n", s.SitesCrawled)
		fmt.Fprintf(stdout, "sites with HB    %d (%.2f%%)\n", s.SitesWithHB, 100*s.AdoptionRate())
		fmt.Fprintf(stdout, "auctions         %d\n", s.Auctions)
		fmt.Fprintf(stdout, "bids             %d\n", s.Bids)
		fmt.Fprintf(stdout, "demand partners  %d\n", s.DemandPartners)
		fmt.Fprintf(stdout, "crawl days       %d\n", s.CrawlDays)
		return 0
	}
	if *mergeOut != "-" {
		fr.Render(stdout)
	}
	return 0
}
