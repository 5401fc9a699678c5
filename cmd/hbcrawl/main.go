// Command hbcrawl runs the measurement crawl over a generated synthetic
// web and streams the dataset to JSONL as visits complete — the repo's
// equivalent of the paper's selenium+HBDetector crawl over the top-35k
// Alexa list. Memory stays flat no matter the crawl size, and Ctrl-C
// stops the crawl promptly (whatever was already written stays valid).
//
// With -report the full figure report is rendered from the same run via
// the streaming metrics API (accumulated per worker off the emit path) —
// no second pass over the dataset and no record retention.
//
// With -hb-timeout and -profile a single run applies a scenario overlay
// (wrapper-deadline override, network profile) at visit time — the
// one-variant counterpart of a cmd/hbsweep axis, useful for crawling one
// intervention without the sweep machinery.
//
// With -shard i/n the run crawls only slice i of an n-way split of the
// seed's world (membership is a pure function of seed, rank and n, so
// the n shard runs partition the full crawl exactly), materializing
// only ~1/n of the world. -shard-out writes the run's metric state to a
// versioned shard file; cmd/hbmerge folds the n files back into the
// byte-identical single-process figure report.
//
// With -trace the crawl additionally records virtual-clock spans for the
// selected visits (all by default; cap with -trace-sites, restrict with
// -trace-filter) and writes one Chrome trace_event JSON file loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. The spans live
// on the simulated timeline, so the file is byte-identical for a given
// seed and plan regardless of -workers.
//
// With -obs the process serves live run telemetry (/debug/vars, an
// expvar-style JSON of the crawl counters) and net/http/pprof profiles
// on the given address while the crawl runs.
//
// Usage:
//
//	hbcrawl -sites 35000 -days 1 -seed 1 -o crawl.jsonl
//	hbcrawl -sites 35000 -o crawl.jsonl -report
//	hbcrawl -sites 5000 -hb-timeout 500 -profile 3g -o slow.jsonl
//	hbcrawl -sites 35000 -shard 2/4 -o shard2.jsonl -shard-out shard2.hbs
//	hbcrawl -sites 200 -trace trace.json -trace-sites 50
//	hbcrawl -sites 35000 -obs 127.0.0.1:6060 -o crawl.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"headerbid"
	"headerbid/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is hbcrawl over the given arguments and output streams, crawling
// until ctx is done. It returns the exit status: 0 on success, 1 when
// the crawl or one of its outputs fails, 2 on a usage error, 130 when
// interrupted (the dataset written so far stays valid).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbcrawl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites    = fs.Int("sites", 35000, "number of sites in the generated world")
		days     = fs.Int("days", 1, "crawl days (day 0 visits all sites; later days revisit HB sites)")
		seed     = fs.Int64("seed", 1, "world + crawl seed (identical seeds reproduce identical datasets)")
		out      = fs.String("o", "crawl.jsonl", "output JSONL path ('-' for stdout)")
		workers  = fs.Int("workers", 0, "crawl parallelism (0 = NumCPU)")
		quiet    = fs.Bool("q", false, "suppress progress output")
		rep      = fs.Bool("report", false, "render the full figure report from the live run (to stdout, or stderr when -o -)")
		hbTO     = fs.Int("hb-timeout", 0, "override every wrapper deadline, in ms (scenario overlay; 0 keeps per-site config)")
		profile  = fs.String("profile", "", "network profile overlay: fiber, cable, 4g or 3g (empty keeps defaults)")
		shardStr = fs.String("shard", "", "crawl only slice i of an n-way world split, as 'i/n' (distributed crawl; fold with hbmerge)")
		shardOut = fs.String("shard-out", "", "write the run's metric state to this shard file ('-' for stdout)")

		tracePath   = fs.String("trace", "", "write virtual-clock visit spans to this Perfetto-loadable trace_event JSON file")
		traceSites  = fs.Int("trace-sites", 0, "cap traced visits per crawl day (0 = every selected visit)")
		traceFilter = fs.String("trace-filter", "", "trace only domains containing this substring")
		obsAddr     = fs.String("obs", "", "serve live crawl telemetry (/debug/vars) and pprof on this address while crawling, e.g. 127.0.0.1:6060")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hbcrawl: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	logger := log.New(stderr, "hbcrawl: ", 0)
	fail := func(err error) int {
		logger.Print(err)
		return 1
	}

	// Checked before the dataset file is created, so a refused run
	// leaves no empty dataset behind.
	var ov headerbid.Overlay
	if *hbTO > 0 {
		ov.TimeoutMS = *hbTO
	}
	if *profile != "" {
		p, ok := headerbid.NetworkProfileByName(*profile)
		if !ok {
			return fail(fmt.Errorf("unknown network profile %q (built-ins: fiber, cable, 4g, 3g)", *profile))
		}
		ov.Network = &p
	}
	shard := headerbid.Shard{Index: 0, Count: 1}
	if *shardStr != "" {
		var err error
		if shard, err = headerbid.ParseShard(*shardStr); err != nil {
			return fail(err)
		}
	}

	// Run telemetry is always on: it feeds the status line and the -obs
	// endpoint, and its per-visit harvest cost is a handful of atomic
	// adds (the bench gate's obs-overhead check keeps it honest).
	reg := headerbid.NewTelemetry()
	if *obsAddr != "" {
		srv, addr, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		logger.Printf("telemetry on http://%s/debug/vars (pprof under /debug/pprof/)", addr)
	}
	prog := newProgress(*quiet, reg, stderr)

	var jsonl *headerbid.JSONLSink
	if *out == "-" {
		jsonl = headerbid.NewJSONLSink(stdout)
	} else {
		var err error
		if jsonl, err = headerbid.NewJSONLFileSink(*out); err != nil {
			return fail(err)
		}
	}

	opts := []headerbid.ExperimentOption{
		headerbid.WithSites(*sites),
		headerbid.WithSeed(*seed),
		headerbid.WithDays(*days),
		headerbid.WithTelemetry(reg),
		headerbid.WithSink(jsonl),
		headerbid.WithProgress(prog.update),
	}
	var traceFile *os.File
	if *tracePath != "" {
		plan := headerbid.TracePlan{MaxSites: *traceSites}
		if f := *traceFilter; f != "" {
			plan.Match = func(domain string) bool { return strings.Contains(domain, f) }
		}
		var err error
		if traceFile, err = os.Create(*tracePath); err != nil {
			jsonl.Close()
			return fail(err)
		}
		opts = append(opts, headerbid.WithTrace(plan), headerbid.WithSink(headerbid.NewTraceSink(traceFile)))
	}
	if *workers > 0 {
		opts = append(opts, headerbid.WithWorkers(*workers))
	}
	if !ov.IsZero() {
		opts = append(opts, headerbid.WithOverlay(ov))
	}
	if *shardStr != "" {
		opts = append(opts, headerbid.WithShard(shard.Index, shard.Count))
	}
	var fr *headerbid.FigureReport
	if *rep || *shardOut != "" {
		fr = headerbid.NewFigureReport()
		opts = append(opts, headerbid.WithMetrics(fr))
	}
	var deg *headerbid.DegradationMetric
	if *shardOut != "" {
		deg = headerbid.NewDegradation()
		opts = append(opts, headerbid.WithMetrics(deg))
	}

	res, err := headerbid.NewExperiment(opts...).Run(ctx)
	prog.finish()
	// Run closed the trace sink, which terminated the JSON document, on
	// every path; the file is ours to close.
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if errors.Is(err, context.Canceled) {
		// Count what the dataset actually holds: metrics fold completed
		// in-flight visits that were never emitted, so res.Stats may run
		// a few visits ahead of the flushed JSONL.
		logger.Printf("interrupted after %d visits; partial dataset flushed", jsonl.Count())
		return 130
	}
	if err != nil {
		return fail(err)
	}

	sum := res.Summary
	logger.Printf("crawled %d sites (%d visits) in %s", sum.SitesCrawled, res.Stats.Visits, res.Elapsed.Round(time.Millisecond))
	logger.Printf("HB sites: %d (%.2f%%), auctions: %d, bids: %d, partners: %d",
		sum.SitesWithHB, 100*sum.AdoptionRate(), sum.Auctions, sum.Bids, sum.DemandPartners)
	if res.Latency.Sites > 0 {
		logger.Printf("median HB latency: %.0f ms (>3s on %.1f%% of HB sites)",
			res.Latency.MedianMS, 100*res.Latency.FracOver3s)
	}
	if *out != "-" {
		logger.Printf("dataset written to %s (%d records)", *out, jsonl.Count())
	}
	if traceFile != nil {
		logger.Printf("trace written to %s (%d visits) — open in https://ui.perfetto.dev", *tracePath, reg.Totals().TracedVisits)
	}

	if *shardOut != "" {
		h := headerbid.ShardHeader{Seed: *seed, ShardCount: shard.Count, Shards: []int{shard.Index}}
		ms := []headerbid.MetricCodec{fr, deg}
		var err error
		if *shardOut == "-" {
			err = headerbid.MarshalShard(stdout, h, ms)
		} else {
			err = headerbid.WriteShardFile(*shardOut, h, ms)
		}
		if err != nil {
			return fail(err)
		}
		if *shardOut != "-" {
			logger.Printf("shard %s metric state written to %s", shard, *shardOut)
		}
	}

	if *rep {
		// The JSONL stream owns stdout when writing to '-'.
		dst := stdout
		if *out == "-" || *shardOut == "-" {
			dst = stderr
		}
		fr.Render(dst)
	}
	return 0
}

// progress renders the crawl status line on stderr: percent done,
// crawl rate and ETA computed from the run-telemetry counters. On a
// terminal it redraws one line in place (throttled to ~5 Hz); on a
// pipe it prints a plain line every 10%. -q suppresses it entirely.
type progress struct {
	quiet   bool
	tty     bool
	w       io.Writer
	reg     *headerbid.Telemetry
	start   time.Time
	last    time.Time
	lastPct int
	wrote   bool
}

func newProgress(quiet bool, reg *headerbid.Telemetry, w io.Writer) *progress {
	p := &progress{quiet: quiet, w: w, reg: reg, lastPct: -1}
	if f, ok := w.(*os.File); ok {
		if st, err := f.Stat(); err == nil {
			p.tty = st.Mode()&os.ModeCharDevice != 0
		}
	}
	//hbvet:allow detwall operator-facing progress pacing; simulated time lives in the per-visit scheduler
	p.start = time.Now()
	return p
}

func (p *progress) update(done, total int) {
	if p.quiet || total == 0 {
		return
	}
	//hbvet:allow detwall operator-facing progress pacing; simulated time lives in the per-visit scheduler
	now := time.Now()
	pct := done * 100 / total
	if p.tty {
		if now.Sub(p.last) < 200*time.Millisecond && done != total {
			return
		}
	} else if pct == p.lastPct || pct%10 != 0 {
		return
	}
	p.last, p.lastPct = now, pct

	t := p.reg.Totals()
	rate := 0.0
	if el := now.Sub(p.start).Seconds(); el > 0 {
		rate = float64(t.Visits) / el
	}
	eta := "--:--"
	if rate > 0 {
		eta = fmtETA(time.Duration(float64(total-done) / rate * float64(time.Second)))
	}
	line := fmt.Sprintf("crawling... %3d%% (%d/%d) %.0f sites/s ETA %s hb=%d quarantined=%d",
		pct, done, total, rate, eta, t.HB, t.Quarantined)
	if p.tty {
		fmt.Fprintf(p.w, "\r\x1b[K%s", line)
		p.wrote = true
	} else {
		fmt.Fprintln(p.w, line)
	}
}

// finish terminates the in-place status line so the run summary starts
// on a fresh line.
func (p *progress) finish() {
	if p.wrote {
		fmt.Fprintln(p.w)
	}
}

// fmtETA renders a duration as M:SS.
func fmtETA(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	s := int(d.Round(time.Second).Seconds())
	return fmt.Sprintf("%d:%02d", s/60, s%60)
}
