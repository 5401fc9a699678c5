// Command hbsweep runs a counterfactual sweep: N parameterized variants
// of the measurement crawl — wrapper-timeout ladder, partner-pool
// ablation, network/device profiles, cookie-sync ablation — over one
// shared synthetic world, then renders the comparison report of causal
// deltas against the zero-intervention baseline. The world is generated
// once and never mutated; every variant reuses it, so the sweep's cost
// is one world build plus one crawl per variant.
//
// Usage:
//
//	hbsweep -sites 5000 -seed 1                      # timeout+partners+network axes
//	hbsweep -sites 5000 -timeouts 500,1000,3000,10000 -partners '' -profiles ''
//	hbsweep -sites 2000 -sync -o sweep-out           # adds sync axis, JSONL per variant
//	hbsweep -sites 2000 -timeouts '' -partners '' -profiles '' -faults default -chaos
//	                                                 # failure-rate ladder + chaos shapes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"headerbid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hbsweep over the given arguments and output streams. It
// returns the exit status: 0 on success, 1 when an axis level or the
// sweep is refused, 2 on a usage error, 130 when interrupted.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites    = fs.Int("sites", 5000, "number of sites in the shared generated world")
		days     = fs.Int("days", 1, "crawl days per variant")
		seed     = fs.Int64("seed", 1, "world + crawl seed (identical seeds reproduce identical comparisons)")
		workers  = fs.Int("workers", 0, "crawl parallelism per variant (0 = NumCPU)")
		parallel = fs.Int("parallel", 2, "variants crawled concurrently")
		timeouts = fs.String("timeouts", "default", "timeout axis: comma-separated wrapper deadlines in ms, 'default', or '' to skip the axis")
		partner  = fs.String("partners", "default", "partner-ablation axis: comma-separated pool caps, 'default', or '' to skip")
		profiles = fs.String("profiles", "default", "network axis: comma-separated profile names (fiber,cable,4g,3g), 'default', or '' to skip")
		sync     = fs.Bool("sync", false, "add the cookie-sync ablation axis")
		wrapper  = fs.Bool("fix-wrappers", false, "add the repaired-wrapper axis")
		faults   = fs.String("faults", "", "fault axis: comma-separated transport failure rates (0..1, e.g. 0.05,0.2), 'default' for the built-in ladder, '' to skip")
		faultFor = fs.String("fault-partner", "", "restrict the fault axis to one partner slug ('' = ecosystem-wide)")
		chaos    = fs.Bool("chaos", false, "add the chaos axis: outage, flapping, slow-loris, mid-body resets, truncated/garbled bodies, error ramp")
		out      = fs.String("o", "", "directory for per-variant JSONL datasets (empty = no datasets)")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "hbsweep: "+format+"\n", a...) }
	fail := func(format string, a ...any) int {
		logf(format, a...)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var axes []headerbid.Axis
	ms, on, err := intLevels(*timeouts)
	if err != nil {
		return fail("%v", err)
	}
	if on {
		axes = append(axes, headerbid.TimeoutAxis(ms...))
	}
	caps, on, err := intLevels(*partner)
	if err != nil {
		return fail("%v", err)
	}
	if on {
		axes = append(axes, headerbid.PartnerAxis(caps...))
	}
	if names, on := strLevels(*profiles); on {
		var ps []headerbid.NetworkProfile
		for _, n := range names {
			p, ok := headerbid.NetworkProfileByName(n)
			if !ok {
				return fail("unknown network profile %q (built-ins: fiber, cable, 4g, 3g)", n)
			}
			ps = append(ps, p)
		}
		axes = append(axes, headerbid.NetworkAxis(ps...))
	}
	if *sync {
		axes = append(axes, headerbid.SyncAxis())
	}
	if *wrapper {
		axes = append(axes, headerbid.WrapperAxis())
	}
	rates, on, err := floatLevels(*faults)
	if err != nil {
		return fail("%v", err)
	}
	if on {
		if *faultFor != "" {
			axes = append(axes, headerbid.PartnerFaultAxis(*faultFor, rates...))
		} else {
			axes = append(axes, headerbid.FaultAxis(rates...))
		}
	}
	if *chaos {
		axes = append(axes, headerbid.ChaosAxis())
	}
	if len(axes) == 0 {
		return fail("every axis disabled; enable at least one")
	}

	opts := []headerbid.SweepOption{
		headerbid.WithSweepSites(*sites),
		headerbid.WithSweepSeed(*seed),
		headerbid.WithSweepDays(*days),
		headerbid.WithVariantConcurrency(*parallel),
		headerbid.WithAxes(axes...),
	}
	if *workers > 0 {
		opts = append(opts, headerbid.WithSweepWorkers(*workers))
	}
	if *out != "" {
		jsonl, err := headerbid.NewVariantJSONLSink(*out)
		if err != nil {
			return fail("%v", err)
		}
		opts = append(opts, headerbid.WithSweepSink(jsonl))
	}
	if !*quiet {
		// Progress over the whole sweep: variants share one visit
		// counter against the day-0 schedule (revisit days on -days>1
		// print beyond 100%).
		total := headerbid.SweepVariantCount(axes...) * *sites
		done := 0
		opts = append(opts, headerbid.WithSweepSink(headerbid.SweepSinkFunc(func(v headerbid.SweepVisit) error {
			done++
			if done%2000 == 0 || done == total {
				fmt.Fprintf(stderr, "\rsweeping... %d/%d visits", done, total)
			}
			return nil
		})))
	}

	//hbvet:allow detwall CLI progress timing is wall-clock by design; the sweep itself runs on the virtual clock
	start := time.Now()
	cmp, err := headerbid.NewSweep(opts...).Run(ctx)
	if !*quiet {
		fmt.Fprintln(stderr)
	}
	if errors.Is(err, context.Canceled) {
		logf("interrupted; no comparison rendered")
		return 130
	}
	if err != nil {
		return fail("%v", err)
	}

	cmp.Render(stdout)
	//hbvet:allow detwall operator-facing wall-clock duration of the whole sweep run
	elapsed := time.Since(start).Round(time.Millisecond)
	logf("swept %d variants over one %d-site world in %s",
		len(cmp.Variants()), cmp.Sites, elapsed)
	if *out != "" {
		logf("per-variant datasets written under %s", *out)
	}
	return 0
}

// intLevels parses a comma-separated int list; "default" means the
// axis's built-in ladder (empty slice), "" disables the axis.
func intLevels(s string) ([]int, bool, error) {
	names, on := strLevels(s)
	if !on {
		return nil, false, nil
	}
	out := make([]int, 0, len(names))
	for _, f := range names {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, false, fmt.Errorf("bad level %q: want a positive integer, 'default' or ''", f)
		}
		out = append(out, n)
	}
	return out, true, nil
}

// floatLevels parses a comma-separated probability list with the same
// default/disable conventions.
func floatLevels(s string) ([]float64, bool, error) {
	names, on := strLevels(s)
	if !on {
		return nil, false, nil
	}
	out := make([]float64, 0, len(names))
	for _, f := range names {
		p, err := strconv.ParseFloat(f, 64)
		if err != nil || p <= 0 || p > 1 {
			return nil, false, fmt.Errorf("bad rate %q: want a probability in (0,1], 'default' or ''", f)
		}
		out = append(out, p)
	}
	return out, true, nil
}

// strLevels parses a comma-separated list with the same default/disable
// conventions.
func strLevels(s string) ([]string, bool) {
	s = strings.TrimSpace(s)
	switch s {
	case "":
		return nil, false
	case "default":
		return nil, true
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out, len(out) > 0
}
