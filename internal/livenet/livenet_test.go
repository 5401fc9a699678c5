package livenet

import (
	"strings"
	"testing"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/core"
	"headerbid/internal/hb"
	"headerbid/internal/pagert"
	"headerbid/internal/sitegen"
	"headerbid/internal/webreq"
)

func liveWorld(t *testing.T, n int) (*sitegen.World, *Server, *Env) {
	t.Helper()
	cfg := sitegen.DefaultConfig(23)
	cfg.NumSites = n
	w := sitegen.Generate(cfg)
	srv, err := Serve(w, 0.05) // 20x time compression for test speed
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	env := NewEnv(srv)
	t.Cleanup(env.Close)
	return w, srv, env
}

// fetchSync issues a fetch and waits for its callback.
func fetchSync(t *testing.T, env *Env, url string) *webreq.Response {
	t.Helper()
	ch := make(chan *webreq.Response, 1)
	env.Fetch(&webreq.Request{ID: 1, URL: url, Method: webreq.GET}, func(r *webreq.Response) {
		ch <- r
	})
	select {
	case r := <-ch:
		return r
	case <-time.After(20 * time.Second):
		t.Fatalf("fetch of %s timed out", url)
		return nil
	}
}

func TestServeDocumentOverRealHTTP(t *testing.T) {
	w, _, env := liveWorld(t, 60)
	site := w.HBSites()[0]
	resp := fetchSync(t, env, site.PageURL())
	if !resp.OK() || !strings.Contains(resp.Body, site.Domain) {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestPartnerEndpointOverRealHTTP(t *testing.T) {
	w, _, env := liveWorld(t, 60)
	_ = w
	resp := fetchSync(t, env, "https://sync.adnxs.com/pixel")
	if resp.Status != 204 {
		t.Fatalf("pixel status = %d (err %q)", resp.Status, resp.Err)
	}
}

func TestUnknownHostIs404(t *testing.T) {
	_, _, env := liveWorld(t, 20)
	resp := fetchSync(t, env, "https://no-such-host.example/x")
	if resp.Status != 404 {
		t.Fatalf("status = %d", resp.Status)
	}
}

// TestFullVisitOverRealHTTP is the integration proof: the identical
// browser + wrapper + detector stack that runs on the virtual clock runs
// over real sockets, and the detector reaches the same verdict as the
// ground truth. Every bid POST's body, built for the socket from the
// typed request the wrapper sent, decodes at the partner: each answer
// is 200, where a body that does not decode is answered 400. (A POST
// still unanswered, or failed in transport, says nothing of its body.)
func TestFullVisitOverRealHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("live integration test")
	}
	w, _, env := liveWorld(t, 240)

	for _, facet := range []hb.Facet{hb.FacetClient, hb.FacetServer, hb.FacetHybrid} {
		var site *sitegen.Site
		for _, s := range w.HBSites() {
			if s.Facet == facet && len(s.AdUnits) <= 6 {
				site = s
				break
			}
		}
		if site == nil {
			t.Fatalf("no %v site generated", facet)
		}

		opts := browser.DefaultOptions()
		opts.PageTimeout = 30 * time.Second
		b := browser.New(env, pagert.New(w.Registry), opts)

		// Visit and attach on the env loop: response delivery runs there,
		// so wiring the detector from another goroutine would race.
		loaded := make(chan struct{})
		type wired struct {
			page *browser.Page
			det  *core.Detector
		}
		wiredCh := make(chan wired, 1)
		env.Post(func() {
			page := b.Visit(site.PageURL(), func(p *browser.Page, vr *browser.VisitResult) {
				if !vr.Loaded {
					t.Errorf("%v: page failed: %+v", facet, vr)
				}
				close(loaded)
			})
			wiredCh <- wired{page: page, det: core.Attach(page, w.Registry)}
		})
		var page *browser.Page
		var det *core.Detector
		select {
		case wd := <-wiredCh:
			page, det = wd.page, wd.det
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: visit never started", facet)
		}

		select {
		case <-loaded:
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: page never loaded", facet)
		}

		// Wait for the page to settle (no pending requests).
		settled := WaitSettled(func() int {
			ch := make(chan int, 1)
			env.Post(func() { ch <- page.Inspector.Pending() })
			select {
			case n := <-ch:
				return n
			case <-time.After(time.Second):
				return 1
			}
		}, 200*time.Millisecond, 25*time.Second)
		if !settled {
			t.Logf("%v: page did not fully settle; proceeding with partial observation", facet)
		}

		obsCh := make(chan *core.Observation, 1)
		env.Post(func() { obsCh <- det.Observation() })
		var obs *core.Observation
		select {
		case obs = <-obsCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: observation never returned", facet)
		}

		if !obs.HB {
			t.Errorf("%v site not detected as HB over live HTTP", facet)
			continue
		}
		if obs.Facet != facet {
			t.Errorf("live facet = %v, ground truth %v", obs.Facet, facet)
		}
		if obs.RequestCount == 0 || obs.TotalHBLatency <= 0 {
			t.Errorf("%v: degenerate observation: requests=%d latency=%v",
				facet, obs.RequestCount, obs.TotalHBLatency)
		}

		posts := make(chan []string, 1)
		env.Post(func() {
			var bad []string
			n := 0
			for _, x := range page.Inspector.Exchanges() {
				if x.Request.Payload() == nil {
					continue
				}
				n++
				if x.Response != nil && x.Response.Status != 0 && x.Response.Status != 200 {
					bad = append(bad, x.String())
				}
			}
			if n == 0 && facet != hb.FacetServer {
				bad = append(bad, "no bid POST sent")
			}
			posts <- bad
		})
		for _, b := range <-posts {
			t.Errorf("%v: bid POST not decoded by its partner: %s", facet, b)
		}
	}
}

func TestWaitSettled(t *testing.T) {
	n := 3
	ok := WaitSettled(func() int {
		if n > 0 {
			n--
		}
		return n
	}, 10*time.Millisecond, time.Second)
	if !ok {
		t.Fatal("did not settle")
	}
	bad := WaitSettled(func() int { return 1 }, 10*time.Millisecond, 100*time.Millisecond)
	if bad {
		t.Fatal("settled while pending")
	}
}

func TestEnvPostOrdering(t *testing.T) {
	_, _, env := liveWorld(t, 10)
	ch := make(chan int, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Post(func() { ch <- i })
	}
	for want := 0; want < 3; want++ {
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("order: got %d want %d", got, want)
			}
		case <-time.After(time.Second):
			t.Fatal("loop stalled")
		}
	}
}
