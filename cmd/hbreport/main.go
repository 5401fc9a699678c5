// Command hbreport regenerates every dataset-derived table and figure of
// the paper from a crawl dataset (see cmd/hbcrawl), printing the same
// rows the paper reports. Each dataset is streamed record by record into
// the figure-report metric — no record slice is ever materialized;
// memory is bounded by aggregate metric state (distinct sites and
// partners, plus the per-figure sample reservoirs: a few floats per HB
// observation), a small fraction of the dataset itself, so it is usable
// on datasets far larger than RAM. With -summary only the Table-1
// roll-up (no sample reservoirs at all) is printed.
//
// Several inputs — repeated -in flags and/or trailing arguments — are
// streamed in sequence into one accumulator, so the per-shard JSONL
// datasets of a distributed crawl (cmd/hbcrawl -shard) report as one:
// the record-level counterpart of folding shard files with cmd/hbmerge.
//
// Usage:
//
//	hbreport -i crawl.jsonl
//	hbreport -in shard0.jsonl -in shard1.jsonl -summary
//	hbreport shard*.jsonl
//	hbcrawl -sites 2000 -o - | hbreport -i -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"headerbid"
)

// multiFlag collects repeated -in values.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is hbreport over the given arguments and streams; "-" names
// stdin. It returns the exit status: 0 on success, 1 when an input
// cannot be read or decoded, is empty, or stdin is named twice, 2 on a
// flag error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ins multiFlag
	var (
		in      = fs.String("i", "", "input JSONL dataset ('-' for stdin); alias for a single -in")
		summary = fs.Bool("summary", false, "print only the Table-1 summary")
	)
	fs.Var(&ins, "in", "input JSONL dataset ('-' for stdin); repeatable, streamed in sequence")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hbreport: "+format+"\n", a...)
		return 1
	}

	if *in != "" {
		ins = append(ins, *in)
	}
	ins = append(ins, fs.Args()...)
	if len(ins) == 0 {
		ins = multiFlag{"crawl.jsonl"}
	}
	stdins := 0
	for _, p := range ins {
		if p == "-" {
			stdins++
		}
	}
	if stdins > 1 {
		return fail("stdin ('-') may be given only once")
	}

	// stream folds every input, in order, through fn, and returns the
	// number of records.
	stream := func(fn func(*headerbid.SiteRecord)) (int, error) {
		n := 0
		for _, path := range ins {
			err := readDataset(path, stdin, func(rec *headerbid.SiteRecord) {
				n++
				fn(rec)
			})
			if err != nil {
				return n, err
			}
		}
		return n, nil
	}

	if *summary {
		// Table-1 only: fold into the lone summary metric.
		m := headerbid.NewSummaryMetric()
		n, err := stream(m.Add)
		if err != nil {
			return fail("%v", err)
		}
		if n == 0 {
			return fail("empty dataset")
		}
		s := m.Summary()
		fmt.Fprintf(stdout, "records          %d\n", n)
		fmt.Fprintf(stdout, "sites crawled    %d\n", s.SitesCrawled)
		fmt.Fprintf(stdout, "sites with HB    %d (%.2f%%)\n", s.SitesWithHB, 100*s.AdoptionRate())
		fmt.Fprintf(stdout, "auctions         %d\n", s.Auctions)
		fmt.Fprintf(stdout, "bids             %d\n", s.Bids)
		fmt.Fprintf(stdout, "demand partners  %d\n", s.DemandPartners)
		fmt.Fprintf(stdout, "crawl days       %d\n", s.CrawlDays)
		return 0
	}

	// Fold each record into the figure-report metric as it is decoded;
	// the record slice is never materialized.
	fr := headerbid.NewFigureReport()
	n, err := stream(fr.Add)
	if err != nil {
		return fail("%v", err)
	}
	if n == 0 {
		return fail("empty dataset")
	}
	fr.Render(stdout)
	return 0
}

// readDataset streams the records of the JSONL dataset at path ("-" for
// stdin) through fn.
func readDataset(path string, stdin io.Reader, fn func(*headerbid.SiteRecord)) error {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	err := headerbid.ReadDatasetStream(r, func(rec *headerbid.SiteRecord) error {
		fn(rec)
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
