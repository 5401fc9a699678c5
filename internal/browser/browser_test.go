package browser

import (
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/htmlmeta"
	"headerbid/internal/webreq"
)

// fakeEnv is a scriptable Env over a virtual clock.
type fakeEnv struct {
	sched   *clock.Scheduler
	pages   map[string]string // URL -> body for 200s
	latency time.Duration
	errFor  map[string]string // URL substring -> error
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		sched:   clock.NewScheduler(time.Time{}),
		pages:   map[string]string{},
		latency: 50 * time.Millisecond,
		errFor:  map[string]string{},
	}
}

func (f *fakeEnv) Now() time.Time                   { return f.sched.Now() }
func (f *fakeEnv) After(d time.Duration, fn func()) { f.sched.After(d, fn) }
func (f *fakeEnv) Post(fn func())                   { f.sched.Post(fn) }
func (f *fakeEnv) Fetch(req *webreq.Request, cb func(*webreq.Response)) {
	for sub, errStr := range f.errFor {
		if strings.Contains(req.URL, sub) {
			errStr := errStr
			f.sched.After(f.latency, func() {
				cb(&webreq.Response{RequestID: req.ID, Err: errStr})
			})
			return
		}
	}
	body, ok := f.pages[req.URL]
	status := 200
	if !ok {
		status = 404
	}
	f.sched.After(f.latency, func() {
		cb(&webreq.Response{RequestID: req.ID, Status: status, Body: body, Received: f.sched.Now()})
	})
}

// recordingRuntime notes the scripts it was asked to run.
type recordingRuntime struct {
	pages []*Page
	docs  []*htmlmeta.Document
}

func (r *recordingRuntime) RunScripts(p *Page, doc *htmlmeta.Document, settle func()) {
	r.pages = append(r.pages, p)
	r.docs = append(r.docs, doc)
	settle()
}

func TestVisitLoadsDocumentAndScripts(t *testing.T) {
	env := newFakeEnv()
	env.pages["https://www.pub.example/"] = `<head><script src="https://cdn.a.example/a.js"></script><script src="https://cdn.b.example/b.js"></script></head>`
	env.pages["https://cdn.a.example/a.js"] = "/*a*/"
	env.pages["https://cdn.b.example/b.js"] = "/*b*/"

	rt := &recordingRuntime{}
	b := New(env, rt, DefaultOptions())
	var vr *VisitResult
	page := b.Visit("https://www.pub.example/", func(p *Page, res *VisitResult) { vr = res })
	env.sched.Run()

	if vr == nil || !vr.Loaded {
		t.Fatalf("visit result = %+v", vr)
	}
	if len(rt.docs) != 1 || len(rt.docs[0].Scripts) != 2 {
		t.Fatalf("runtime not invoked with parsed doc: %+v", rt.docs)
	}
	// Inspector saw the document plus both scripts.
	if got := len(page.Inspector.Exchanges()); got != 3 {
		t.Fatalf("exchanges = %d, want 3", got)
	}
}

func TestVisitTimeout(t *testing.T) {
	env := newFakeEnv()
	env.latency = 2 * time.Minute // slower than the page timeout
	env.pages["https://slow.example/"] = "<html/>"
	opts := DefaultOptions()
	opts.PageTimeout = 60 * time.Second
	b := New(env, &recordingRuntime{}, opts)
	var vr *VisitResult
	b.Visit("https://slow.example/", func(p *Page, res *VisitResult) { vr = res })
	env.sched.Run()
	if vr == nil || !vr.TimedOut || vr.Loaded {
		t.Fatalf("visit result = %+v, want timeout", vr)
	}
}

func TestVisitHTTPError(t *testing.T) {
	env := newFakeEnv()
	b := New(env, &recordingRuntime{}, DefaultOptions())
	var vr *VisitResult
	b.Visit("https://missing.example/", func(p *Page, res *VisitResult) { vr = res })
	env.sched.Run()
	if vr == nil || vr.Loaded || vr.Err == "" {
		t.Fatalf("visit result = %+v, want http error", vr)
	}
}

func TestVisitTransportError(t *testing.T) {
	env := newFakeEnv()
	env.errFor["dead.example"] = "connection refused"
	b := New(env, &recordingRuntime{}, DefaultOptions())
	var vr *VisitResult
	b.Visit("https://dead.example/", func(p *Page, res *VisitResult) { vr = res })
	env.sched.Run()
	if vr == nil || vr.Loaded || !strings.Contains(vr.Err, "refused") {
		t.Fatalf("visit result = %+v", vr)
	}
}

func TestPageCloseDropsCallbacks(t *testing.T) {
	env := newFakeEnv()
	page := NewPage(env, DefaultOptions())
	ran := false
	page.After(10*time.Millisecond, func() { ran = true })
	page.Close()
	env.sched.Run()
	if ran {
		t.Fatal("callback ran after page close")
	}
	// Fetch after close must be a no-op.
	page2 := NewPage(env, DefaultOptions())
	page2.Close()
	page2.Fetch(&webreq.Request{URL: "https://x.example/"}, func(*webreq.Response) {
		t.Fatal("fetch callback after close")
	})
	env.sched.Run()
}

func TestSingleThreadedQueueingSerializesResponses(t *testing.T) {
	// Two responses arriving simultaneously must be delivered separated
	// by at least HandlerCost — the §7.2 JS main-thread effect.
	env := newFakeEnv()
	env.pages["https://a.example/"] = "a"
	env.pages["https://b.example/"] = "b"
	opts := DefaultOptions()
	opts.HandlerCost = 20 * time.Millisecond
	page := NewPage(env, opts)

	var times []time.Time
	for _, u := range []string{"https://a.example/", "https://b.example/"} {
		page.Fetch(&webreq.Request{URL: u}, func(*webreq.Response) {
			times = append(times, env.Now())
		})
	}
	env.sched.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	gap := times[1].Sub(times[0])
	if gap < opts.HandlerCost {
		t.Fatalf("responses not serialized: gap = %v, want >= %v", gap, opts.HandlerCost)
	}
}

func TestQueueingDisabledWithZeroCost(t *testing.T) {
	env := newFakeEnv()
	env.pages["https://a.example/"] = "a"
	env.pages["https://b.example/"] = "b"
	opts := DefaultOptions()
	opts.HandlerCost = 0
	page := NewPage(env, opts)
	var times []time.Time
	for _, u := range []string{"https://a.example/", "https://b.example/"} {
		page.Fetch(&webreq.Request{URL: u}, func(*webreq.Response) {
			times = append(times, env.Now())
		})
	}
	env.sched.Run()
	if times[1].Sub(times[0]) != 0 {
		t.Fatalf("zero handler cost still delayed: %v", times[1].Sub(times[0]))
	}
}

func TestPageFetchStampsAndRecords(t *testing.T) {
	env := newFakeEnv()
	env.pages["https://a.example/x"] = "ok"
	page := NewPage(env, DefaultOptions())
	page.URL = "https://www.pub.example/"
	var resp *webreq.Response
	req := &webreq.Request{URL: "https://a.example/x"}
	page.Fetch(req, func(r *webreq.Response) { resp = r })
	env.sched.Run()
	if resp == nil || resp.Received.IsZero() {
		t.Fatalf("response not stamped: %+v", resp)
	}
	if req.Referer != page.URL {
		t.Fatalf("referer = %q", req.Referer)
	}
	if page.Inspector.Exchanges()[0].Latency() <= 0 {
		t.Fatal("latency not measurable")
	}
}

func TestIsKnownHBLibrary(t *testing.T) {
	yes := []string{
		"https://cdn.prebid.example/prebid.js",
		"https://x.example/pbjs.min.js",
		"https://www.googletagservices.com/tag/js/gpt.js",
		"https://cdn.pubfood.example/pubfood.js",
		"https://static.pub.example/js/hb-wrapper.js",
	}
	for _, u := range yes {
		if !IsKnownHBLibrary(u) {
			t.Errorf("IsKnownHBLibrary(%q) = false", u)
		}
	}
	no := []string{
		"https://cdn.static.example/jquery.min.js",
		"https://analytics.static.example/ga.js",
		"",
	}
	for _, u := range no {
		if IsKnownHBLibrary(u) {
			t.Errorf("IsKnownHBLibrary(%q) = true", u)
		}
	}
}

func TestVisitResultSettled(t *testing.T) {
	env := newFakeEnv()
	env.pages["https://www.pub.example/"] = "<head></head>"
	rt := &recordingRuntime{}
	b := New(env, rt, DefaultOptions())
	var vr *VisitResult
	b.Visit("https://www.pub.example/", func(p *Page, res *VisitResult) { vr = res })
	env.sched.Run()
	if vr == nil || !vr.Settled {
		t.Fatalf("settle callback not propagated: %+v", vr)
	}
}

func TestVisitPageReuseMatchesFreshVisit(t *testing.T) {
	env := newFakeEnv()
	env.pages["https://www.pub.example/"] = `<head><script src="https://cdn.a.example/a.js"></script></head>`
	env.pages["https://cdn.a.example/a.js"] = "/*a*/"
	env.pages["https://www.other.example/"] = `<head></head>`

	rt := &recordingRuntime{}
	b := New(env, rt, DefaultOptions())

	// Fresh-page reference visit.
	var ref *VisitResult
	refPage := b.Visit("https://www.pub.example/", func(p *Page, res *VisitResult) { ref = res })
	env.sched.Run()
	refPage.Close()

	// The same two visits on one pooled page.
	pooled := NewPage(env, b.Opts)
	var vr1 *VisitResult
	b.VisitPage(pooled, "https://www.other.example/", func(p *Page, res *VisitResult) { vr1 = res })
	env.sched.Run()
	if vr1 == nil || !vr1.Loaded || len(pooled.Inspector.Exchanges()) != 1 {
		t.Fatalf("first pooled visit: %+v, exchanges=%d", vr1, len(pooled.Inspector.Exchanges()))
	}
	pooled.Close()

	var vr2 *VisitResult
	again := b.VisitPage(pooled, "https://www.pub.example/", func(p *Page, res *VisitResult) { vr2 = res })
	env.sched.Run()
	if again != pooled {
		t.Fatal("VisitPage did not reuse the supplied page")
	}
	if pooled.closed {
		t.Fatal("rebound page still closed")
	}
	if vr2 == nil || vr2.Loaded != ref.Loaded || vr2.DocLatency != ref.DocLatency {
		t.Fatalf("reused-page visit %+v != fresh visit %+v", vr2, ref)
	}
	if got, want := len(pooled.Inspector.Exchanges()), len(refPage.Inspector.Exchanges()); got != want {
		t.Fatalf("exchanges = %d, want %d", got, want)
	}
}
