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
	"log"
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
	var ins multiFlag
	var (
		in      = flag.String("i", "", "input JSONL dataset ('-' for stdin); alias for a single -in")
		summary = flag.Bool("summary", false, "print only the Table-1 summary")
	)
	flag.Var(&ins, "in", "input JSONL dataset ('-' for stdin); repeatable, streamed in sequence")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("hbreport: ")

	if *in != "" {
		ins = append(ins, *in)
	}
	ins = append(ins, flag.Args()...)
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
		log.Fatal("stdin ('-') may be given only once")
	}

	// stream folds every input, in order, through fn.
	stream := func(fn func(*headerbid.SiteRecord) error) int {
		n := 0
		for _, path := range ins {
			var r io.Reader = os.Stdin
			if path != "-" {
				f, err := os.Open(path)
				if err != nil {
					log.Fatal(err)
				}
				r = f
			}
			err := headerbid.ReadDatasetStream(r, func(rec *headerbid.SiteRecord) error {
				n++
				return fn(rec)
			})
			if path != "-" {
				r.(*os.File).Close()
			}
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
		}
		return n
	}

	if *summary {
		// Table-1 only: fold into the lone summary metric.
		m := headerbid.NewSummaryMetric()
		n := stream(func(rec *headerbid.SiteRecord) error {
			m.Add(rec)
			return nil
		})
		if n == 0 {
			log.Fatal("empty dataset")
		}
		s := m.Summary()
		fmt.Printf("records          %d\n", n)
		fmt.Printf("sites crawled    %d\n", s.SitesCrawled)
		fmt.Printf("sites with HB    %d (%.2f%%)\n", s.SitesWithHB, 100*s.AdoptionRate())
		fmt.Printf("auctions         %d\n", s.Auctions)
		fmt.Printf("bids             %d\n", s.Bids)
		fmt.Printf("demand partners  %d\n", s.DemandPartners)
		fmt.Printf("crawl days       %d\n", s.CrawlDays)
		return
	}

	// Fold each record into the figure-report metric as it is decoded;
	// the record slice is never materialized.
	fr := headerbid.NewFigureReport()
	n := stream(func(rec *headerbid.SiteRecord) error {
		fr.Add(rec)
		return nil
	})
	if n == 0 {
		log.Fatal("empty dataset")
	}
	fr.Render(os.Stdout)
}
