package crawler

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"headerbid/internal/dataset"
	"headerbid/internal/events"
	"headerbid/internal/obs"
	"headerbid/internal/overlay"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
	"headerbid/internal/webreq"
)

var updatePubfood = flag.Bool("update-pubfood", false, "rewrite testdata/pubfood_page.golden from the current code")

// pubfoodGoldenFaults is the fault regime of the golden's faulted
// visits: transport failures (retries), responses reset after a
// slow-loris stretch (failures that land past the deadline), truncated
// and garbled bodies (decode errors and the codec's slow path) and
// latency spikes (late bids).
var pubfoodGoldenFaults = &overlay.Overlay{Faults: []overlay.Fault{{
	Partner:          "*",
	FailProb:         0.3,
	SpikeProb:        0.3,
	SpikeLatency:     2500 * time.Millisecond,
	SlowLorisProb:    0.2,
	SlowLorisStretch: 4 * time.Second,
	ResetMidBodyProb: 0.2,
	TruncateProb:     0.2,
	GarbleProb:       0.2,
}}}

// TestPubfoodPageGolden pins, byte for byte, what a pubfood client page
// does on the wire, on its event bus and in its trace, and the record
// the detector makes of it: the ordered DOM events with their library,
// auction IDs and params, every request's URL and body and every
// response (with its body when a script asked for it), the visit
// trace's JSON and the record's JSONL line. The
// pages are the pubfood pages of smallWorld(4000) with at least three
// ad units and eight bidders: one of them splits its bidders across its
// units and has a 1 s deadline, the other has six units. The runtime first visits the
// world's first 300 HB sites, so the pages run on protocol state other
// pages have used. Each page is visited on day 1 as served and on days
// 1 to 3 under pubfoodGoldenFaults.
func TestPubfoodPageGolden(t *testing.T) {
	w := smallWorld(t, 4000)
	var pages []*sitegen.Site
	for _, s := range w.HBSites() {
		if s.Library == "pubfood" && len(s.AdUnits) >= 3 && len(s.Partners) >= 8 {
			pages = append(pages, s)
		}
	}
	if len(pages) < 2 {
		t.Fatalf("the world has %d rich pubfood pages, want at least 2", len(pages))
	}
	faults, err := compileFaults(w, pubfoodGoldenFaults)
	if err != nil {
		t.Fatal(err)
	}
	vrt := newVisitRuntime()
	for _, s := range w.HBSites()[:300] {
		vrt.visit(w, s, 0, DefaultOptions(5), nil, nil)
	}
	var out bytes.Buffer
	for _, site := range pages {
		fmt.Fprintf(&out, "==== pubfood page %s: %d ad units, partners %v\n", site.Domain, len(site.AdUnits), site.Partners)
		capturePubfoodVisit(t, &out, vrt, w, site, 1, nil, nil)
		for day := 1; day <= 3; day++ {
			opts := DefaultOptions(5)
			opts.Overlay = pubfoodGoldenFaults
			capturePubfoodVisit(t, &out, vrt, w, site, day, &opts, faults)
		}
	}

	path := filepath.Join("testdata", "pubfood_page.golden")
	if *updatePubfood {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		got := filepath.Join(t.TempDir(), "pubfood_page.got")
		os.WriteFile(got, out.Bytes(), 0o644)
		t.Fatalf("the pubfood page's visits diverged from %s (got %d bytes, want %d); the new bytes are in %s",
			path, out.Len(), len(golden), got)
	}
}

// capturePubfoodVisit visits s on day on vrt, traced, and writes the
// visit's events, exchanges, trace and record to out. opts nil is
// DefaultOptions(5) without faults.
func capturePubfoodVisit(t *testing.T, out *bytes.Buffer, vrt *visitRuntime, w *sitegen.World, s *sitegen.Site, day int, opts *Options, faults simnet.FaultTable) {
	t.Helper()
	o := DefaultOptions(5)
	if opts != nil {
		o = *opts
	}
	var evs []string
	// The hook runs before the page is rebound, which drops the bus's
	// listeners; a callback posted from it runs once the visit's
	// scheduler starts, after the rebind and before the document loads.
	o.VisitHook = func(net *simnet.Network, _ *sitegen.Site, _ int) {
		net.Sched.Post(func() {
			vrt.page.Bus.SubscribeAll(func(e events.Event) {
				evs = append(evs, fmt.Sprintf("%s t=%s aid=%q unit=%q bidder=%q cpm=%v cur=%q size=%s lib=%q params=%q",
					e.Type, e.Time.Format(time.RFC3339Nano), e.AuctionID, e.AdUnit, e.Bidder, e.CPM, e.Currency, e.Size, e.Library, e.Params))
			})
		})
	}
	vt := obs.NewVisitTrace()
	rec := vrt.visit(w, s, day, o, faults, vt)

	fmt.Fprintf(out, "\n== day %d, faulted %v\n-- events\n", day, faults != nil)
	for _, e := range evs {
		fmt.Fprintln(out, e)
	}
	fmt.Fprintln(out, "-- exchanges")
	for _, x := range vrt.page.Inspector.Exchanges() {
		req := x.Request
		fmt.Fprintf(out, "%s %s %s sent=%s\n", req.Method, req.Kind, req.URL, req.Sent.Format(time.RFC3339Nano))
		if body := req.Body(); body != "" {
			fmt.Fprintf(out, "  body %s\n", body)
		}
		if r := x.Response; r != nil {
			fmt.Fprintf(out, "  response status=%d err=%q received=%s", r.Status, r.Err, r.Received.Format(time.RFC3339Nano))
			if req.Kind == webreq.KindXHR {
				fmt.Fprintf(out, " body %q", r.Body)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintln(out, "-- trace")
	tw := obs.NewTraceWriter(out)
	if err := tw.Write(vt.Snapshot(s.Domain, day)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(out, "\n-- record")
	dw := dataset.NewWriter(out)
	if err := dw.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
}
