package crawler

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/clock"
	"headerbid/internal/core"
	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/overlay"
	"headerbid/internal/pagert"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
)

// visitWithNet replicates VisitSimulated's wiring but exposes the network
// so tests can inject faults before the visit.
func visitWithNet(t *testing.T, w *sitegen.World, s *sitegen.Site,
	prep func(*simnet.Network)) *core.Observation {
	t.Helper()
	sched := clock.NewScheduler(time.Time{})
	net := simnet.New(sched, 99)
	w.InstallVisit(net, s, &sitegen.VisitBinding{})
	if prep != nil {
		prep(net)
	}

	env := net.Env()
	b := browser.New(env, pagert.New(w.Registry), browser.DefaultOptions())
	page := b.Visit(s.PageURL(), nil)
	det := core.Attach(page, w.Registry)
	sched.RunUntil(sched.Now().Add(90 * time.Second))
	page.Close()
	return det.Observation()
}

func faultWorld(t *testing.T) (*sitegen.World, *sitegen.Site) {
	t.Helper()
	cfg := sitegen.DefaultConfig(61)
	cfg.NumSites = 400
	w := sitegen.Generate(cfg)
	for _, s := range w.HBSites() {
		// A hybrid site with several bidders gives faults something to hit.
		if s.Facet == hb.FacetHybrid && len(s.Partners) >= 4 {
			return w, s
		}
	}
	t.Fatal("no suitable hybrid site")
	return nil, nil
}

func TestDetectionSurvivesPartnerOutage(t *testing.T) {
	w, site := faultWorld(t)
	// Kill every bidder endpoint except DFP: bid requests all fail at
	// transport level, yet the page must still be classified HB (the ad
	// server round still happens) and must not crash anything.
	obs := visitWithNet(t, w, site, func(net *simnet.Network) {
		for _, slug := range site.Partners[1:] {
			p, _ := w.Registry.BySlug(slug)
			net.Fault(p.Host, simnet.FaultMode{FailProb: 1, Err: "connection refused"})
		}
	})
	if !obs.HB {
		t.Fatal("total bidder outage broke HB detection")
	}
	for _, a := range obs.Auctions {
		for _, b := range a.Bids {
			if b.Source == "client" {
				t.Fatalf("client bid recorded despite outage: %+v", b)
			}
		}
	}
}

func TestDetectionSurvivesAdServerOutage(t *testing.T) {
	w, site := faultWorld(t)
	obs := visitWithNet(t, w, site, func(net *simnet.Network) {
		net.Fault("doubleclick.net", simnet.FaultMode{FailProb: 1, Err: "reset"})
	})
	// With DFP dark, client-side events still fire: the page is detected
	// via the event channel; latency is simply unmeasurable.
	if !obs.HB {
		t.Fatal("ad-server outage broke detection entirely")
	}
	if obs.TotalHBLatency != 0 {
		t.Fatalf("latency measured without an ad-server response: %v", obs.TotalHBLatency)
	}
}

func TestDetectionSurvivesSlowPartners(t *testing.T) {
	w, site := faultWorld(t)
	obs := visitWithNet(t, w, site, func(net *simnet.Network) {
		for _, slug := range site.Partners[1:] {
			p, _ := w.Registry.BySlug(slug)
			net.Fault(p.Host, simnet.FaultMode{ExtraLatency: 20 * time.Second})
		}
	})
	if !obs.HB {
		t.Fatal("slow partners broke detection")
	}
	// The wrapper's deadline bounds the round: latency stays near the
	// site's timeout plus the ad-server exchange, far below the injected
	// 20s delay.
	limit := time.Duration(site.TimeoutMS)*time.Millisecond + 5*time.Second
	if obs.TotalHBLatency <= 0 || obs.TotalHBLatency > limit {
		t.Fatalf("latency = %v, want (0, %v] (deadline must bound the round)", obs.TotalHBLatency, limit)
	}
}

func TestCleanRunMatchesFaultFreeBaseline(t *testing.T) {
	w, site := faultWorld(t)
	a := visitWithNet(t, w, site, nil)
	b := visitWithNet(t, w, site, nil)
	if a.Facet != b.Facet || a.TotalHBLatency != b.TotalHBLatency {
		t.Fatal("fault-free visits not reproducible")
	}
}

// TestFaultedVisitAllocParity pins the cost of the compiled fault table:
// the crawl builds it once and every visit installs it by reference, so
// a faulted visit on the pooled runtime allocates exactly what the same
// visit without an overlay does. The fault is zero-shaped (no draws, no
// payload effects), so any difference is the cost of carrying faults.
//
// A collection empties the runtime's pools, and refilling them counts
// as visit allocations on whichever side it lands. So the collector is
// off after one full cycle, and each side is the least of three
// batches; equality stays exact.
func TestFaultedVisitAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race (sync.Pool drops items)")
	}
	w, site := faultWorld(t)
	opts := DefaultOptions(5)
	fopts := opts
	fopts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{{Partner: "*"}}}
	faults, err := compileFaults(w, fopts.Overlay)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) == 0 {
		t.Fatal("\"*\" fault compiled to an empty table")
	}

	vrt := newVisitRuntime()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := func(visit func()) float64 {
		return min(testing.AllocsPerRun(10, visit), testing.AllocsPerRun(10, visit), testing.AllocsPerRun(10, visit))
	}
	clean := least(func() { vrt.visit(w, site, 0, opts, nil, nil) })
	faulted := least(func() { vrt.visit(w, site, 0, fopts, faults, nil) })
	if faulted != clean {
		t.Fatalf("faulted visit allocates %.0f, clean visit %.0f: faults must cost no per-visit allocation", faulted, clean)
	}
}

// TestFaultTableSharedCopyOnWrite: the workers of a crawl share one
// compiled fault table while a VisitHook rewrites faults on a fixed
// subset of sites. Fault and ClearFault copy the shared table before
// writing, so every record outside the subset is byte-identical to the
// same crawl without the hook. Under -race this is also the proof that
// sharing the table across workers is free of data races.
func TestFaultTableSharedCopyOnWrite(t *testing.T) {
	w := smallWorld(t, 160)
	touched := func(s *sitegen.Site) bool { return s.Rank%5 == 0 }
	hook := func(net *simnet.Network, s *sitegen.Site, day int) {
		if !touched(s) {
			return
		}
		for _, slug := range s.Partners {
			p, ok := w.Registry.BySlug(slug)
			if !ok {
				continue
			}
			if s.Rank%10 == 0 {
				net.ClearFault(p.Host)
			} else {
				net.Fault(p.Host, simnet.FaultMode{FailProb: 1, Err: "hook outage"})
			}
		}
	}
	crawl := func(hook func(*simnet.Network, *sitegen.Site, int)) (domains []string, lines [][]byte) {
		opts := DefaultOptions(17)
		opts.Workers = 4
		opts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{{Partner: "*", FailProb: 0.3}}}
		opts.VisitHook = hook
		err := CrawlStream(context.Background(), w, opts, func(v Visit) error {
			var buf bytes.Buffer
			dw := dataset.NewWriter(&buf)
			if err := dw.Write(v.Record); err != nil {
				return err
			}
			if err := dw.Close(); err != nil {
				return err
			}
			domains = append(domains, v.Record.Domain)
			lines = append(lines, buf.Bytes())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return domains, lines
	}

	domains, plain := crawl(nil)
	_, hooked := crawl(hook)
	if len(plain) != len(w.Sites) || len(hooked) != len(plain) {
		t.Fatalf("records: plain %d, hooked %d, want %d", len(plain), len(hooked), len(w.Sites))
	}
	changed := 0
	for i, s := range w.Sites {
		if domains[i] != s.Domain {
			t.Fatalf("record %d is %s, want %s", i, domains[i], s.Domain)
		}
		same := bytes.Equal(plain[i], hooked[i])
		if touched(s) {
			if !same {
				changed++
			}
			continue
		}
		if !same {
			t.Fatalf("hook on other sites changed %s:\nplain:  %s\nhooked: %s", s.Domain, plain[i], hooked[i])
		}
	}
	if changed == 0 {
		t.Fatal("hooked faults changed no record: the hook never reached its visits")
	}
}

// TestUnknownFaultTargetIsError: a fault naming a partner the registry
// does not know fails the crawl before the first visit, naming the
// slug, instead of crawling fault-free under the faulted label.
func TestUnknownFaultTargetIsError(t *testing.T) {
	w := smallWorld(t, 40)
	opts := DefaultOptions(3)
	opts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{
		{Partner: "*", FailProb: 0.2},
		{Partner: "nosuchpartner", FailProb: 0.5},
	}}
	visits := 0
	err := CrawlStreamSharded(context.Background(), w, opts,
		func(Visit) error { visits++; return nil },
		func(int, *dataset.SiteRecord) { visits++ })
	if err == nil || !strings.Contains(err.Error(), `"nosuchpartner"`) {
		t.Fatalf("err = %v, want an error naming \"nosuchpartner\"", err)
	}
	if visits != 0 {
		t.Fatalf("%d visits ran before the unknown-target error", visits)
	}

	rec := VisitSimulated(w, w.Sites[0], 0, opts)
	if !strings.Contains(rec.Err, `"nosuchpartner"`) || rec.Loaded || rec.Domain != w.Sites[0].Domain {
		t.Fatalf("single visit under an unknown target: %+v", rec)
	}

	// Registry slugs resolve case-insensitively, as before.
	p := w.Registry.All()[0]
	opts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{{Partner: strings.ToUpper(p.Slug), FailProb: 1}}}
	if faults, err := compileFaults(w, opts.Overlay); err != nil || len(faults) != 1 {
		t.Fatalf("upper-case slug %q: table %v, err %v", strings.ToUpper(p.Slug), faults, err)
	}
}
