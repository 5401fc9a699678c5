// Package browser implements the page-execution engine the detector runs
// inside: a single-threaded, JS-style event loop per page, a fetch API
// routed through a webRequest inspector, and a script runtime hook that
// plays the role of executing the page's header scripts. The engine is
// written against a small Env seam so identical page/protocol/detector
// code runs on the virtual-clock simulated network (package simnet) and
// on a real HTTP loopback network (package livenet) — the repo's
// equivalent of "chromedriver, but instrumentable".
package browser

import (
	"strconv"
	"strings"
	"time"

	"headerbid/internal/events"
	"headerbid/internal/htmlmeta"
	"headerbid/internal/obs"
	"headerbid/internal/webreq"
)

// Env abstracts the network + time + event-loop substrate a page runs on.
// Implementations must deliver every callback on a single logical thread.
type Env interface {
	// Now returns the environment's current time (virtual or wall).
	Now() time.Time
	// After schedules fn on the event loop after d.
	After(d time.Duration, fn func())
	// Post schedules fn to run as soon as possible.
	Post(fn func())
	// Fetch performs a network request; cb is delivered on the event loop.
	// Implementations stamp resp.Received.
	Fetch(req *webreq.Request, cb func(*webreq.Response))
}

// CallFetcher is the optional closure-free counterpart of Env.Fetch: the
// callback is a package-level function plus its receiver, so a fetch on
// the crawl hot path allocates no closure per request. Envs that provide
// it (the simulated network) are detected once per page; others fall
// back to Fetch.
type CallFetcher interface {
	FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any)
}

// CallScheduler is the optional closure-free counterpart of Env.After
// (see CallFetcher).
type CallScheduler interface {
	AfterCall(d time.Duration, fn func(any), arg any)
}

// Options tunes page behaviour.
type Options struct {
	// HandlerCost models main-thread occupancy per delivered response
	// (parse + handler execution). The paper (Section 7.2) points out that
	// JS is single-threaded, so asynchronous HB responses still queue; a
	// non-zero cost reproduces that serialization. Zero disables queueing.
	HandlerCost time.Duration
	// PageTimeout aborts the visit if the document does not load in time
	// (the crawler uses 60s, mirroring the paper's crawl policy).
	PageTimeout time.Duration
}

// DefaultOptions mirror the crawl configuration in the paper.
func DefaultOptions() Options {
	return Options{
		HandlerCost: 8 * time.Millisecond,
		PageTimeout: 60 * time.Second,
	}
}

// Page is one loaded webpage: its event bus (DOM events), its webRequest
// inspector, and its single-threaded fetch facade. Page implements the
// Env shape expected by the HB libraries (prebid.Env, gptlib.Env), adding
// inspection and main-thread queueing on top of the raw network Env.
type Page struct {
	URL       string
	Bus       *events.Bus
	Inspector *webreq.Inspector

	env       Env
	envFetch  CallFetcher   // non-nil when env supports closure-free fetch
	envSched  CallScheduler // non-nil when env supports closure-free After
	opts      Options
	busyUntil time.Time
	closed    bool
	// This visit's storage, rewound by Rebind: the requests the page and
	// its scripts issue (NewRequest) with the queries parsed from their
	// URLs, their pending deliveries, the pending timers, the parse and
	// the visit's own state.
	requests webreq.Requests
	fetches  webreq.Slab[pendingFetch]
	timers   webreq.Slab[pendingTimer]
	doc      htmlmeta.Document
	visit    visitState
	settle   func() // visit.settle, bound once per page

	// Doc is the parsed document, set after load. It points into
	// page-owned storage and is valid until Rebind: hold the strings it
	// carries (substrings of the response body), never the Document.
	Doc *htmlmeta.Document

	// Trace is this visit's span recorder (nil = tracing off, the
	// default). The crawler sets it on traced visits; page libraries
	// reach it through the VisitTrace accessor and must emit behind the
	// guarded Enabled() check (hbvet: obsguard).
	Trace *obs.VisitTrace
}

// NewPage creates a page bound to env.
func NewPage(env Env, opts Options) *Page {
	p := &Page{
		Bus:       new(events.Bus),
		Inspector: webreq.NewInspector(),
		env:       env,
		opts:      opts,
	}
	p.envFetch, _ = env.(CallFetcher)
	p.envSched, _ = env.(CallScheduler)
	p.settle = p.visit.settle
	return p
}

// Rebind returns the page to the state NewPage(env, opts) would produce,
// reusing the bus's, inspector's, request, pending-fetch, timer and
// document storage. The crawler pools one page per worker and rebinds
// it before every visit — the "new, clean instance" policy without the
// per-visit bus/inspector/hook-table/per-request allocations. Callers
// must not rebind while callbacks of the previous visit can still fire
// (the crawler resets its scheduler first, which drops them): their
// requests, pending fetches and timers are reused.
func (p *Page) Rebind(env Env, opts Options) {
	p.URL = ""
	p.Bus.Reset()
	p.Inspector.Reset()
	p.requests.Reset()
	p.fetches.Reset()
	p.timers.Reset()
	p.env = env
	p.envFetch, _ = env.(CallFetcher)
	p.envSched, _ = env.(CallScheduler)
	p.opts = opts
	p.busyUntil = time.Time{}
	p.closed = false
	p.Doc = nil
	p.Trace = nil
}

// Result returns the result of the page's visit once it has finished
// (scripts started, or the load failed or timed out), nil before. It
// lives in the page until the page's next visit.
func (p *Page) Result() *VisitResult {
	if !p.visit.finished {
		return nil
	}
	return &p.visit.res
}

// VisitTrace exposes the visit's span recorder to page libraries (the
// wrappers and the cookie-sync machinery see the page as their Env and
// type-assert for this accessor). Nil when the visit is untraced.
func (p *Page) VisitTrace() *obs.VisitTrace { return p.Trace }

// Now implements the library Env.
func (p *Page) Now() time.Time { return p.env.Now() }

// NewRequest returns a zeroed request in page-owned storage for the
// page or one of its scripts to fill and Fetch. It is valid until the
// page's next Rebind, which is as long as the page's inspector records
// it and its visit can reach it; so is the query its Params parses.
func (p *Page) NewRequest() *webreq.Request { return p.requests.New() }

// After implements the library Env; callbacks are dropped once the page
// is closed (navigated away / crawler teardown).
func (p *Page) After(d time.Duration, fn func()) { p.AfterCall(d, runTimerFunc, fn) }

// AfterCall is After with a receiver-style callback: fn(arg) runs after
// d unless the page has been closed by then. The pending timer lives in
// the page's storage, so on an Env with CallScheduler a timer allocates
// nothing.
func (p *Page) AfterCall(d time.Duration, fn func(any), arg any) {
	if p.envSched == nil {
		p.env.After(d, func() {
			if !p.closed {
				fn(arg)
			}
		})
		return
	}
	t := p.timers.Alloc()
	*t = pendingTimer{p: p, fn: fn, arg: arg}
	p.envSched.AfterCall(d, pendingTimerRun, t)
}

// pendingTimer is one scheduled page timer (AfterCall).
type pendingTimer struct {
	p   *Page
	fn  func(any)
	arg any
}

func pendingTimerRun(a any) {
	t := a.(*pendingTimer)
	if !t.p.closed {
		t.fn(t.arg)
	}
}

// runTimerFunc adapts an After callback to the AfterCall convention.
func runTimerFunc(a any) { a.(func())() }

// Post schedules fn on the page loop as soon as possible.
func (p *Page) Post(fn func()) { p.After(0, fn) }

// Close tears the page down; pending callbacks become no-ops, like
// handlers after navigation.
func (p *Page) Close() { p.closed = true }

// pendingFetch is one in-flight page request: the former
// Fetch-closure -> deliver-closure chain flattened onto a single struct
// that rides the closure-free network/scheduler paths when the Env
// provides them. It lives in the page's slab, so a pooled page
// allocates nothing per request.
type pendingFetch struct {
	p     *Page
	cb    func(*webreq.Response, any)
	arg   any
	resp  *webreq.Response
	reqID int64
}

// pendingFetchNet receives the raw network response (CallFetcher path).
func pendingFetchNet(resp *webreq.Response, a any) {
	a.(*pendingFetch).onNet(resp)
}

// pendingFetchRun executes the queued delivery (CallScheduler path).
func pendingFetchRun(a any) {
	a.(*pendingFetch).run()
}

// onNet applies single-threaded queueing: if the main thread is busy
// handling an earlier response, this one waits its turn, then occupies
// the thread for HandlerCost.
func (pf *pendingFetch) onNet(resp *webreq.Response) {
	p := pf.p
	if p.closed {
		return
	}
	resp.RequestID = pf.reqID
	pf.resp = resp
	now := p.env.Now()
	var wait time.Duration
	if p.opts.HandlerCost > 0 && p.busyUntil.After(now) {
		wait = p.busyUntil.Sub(now)
	}
	start := now.Add(wait)
	p.busyUntil = start.Add(p.opts.HandlerCost)
	if wait <= 0 {
		pf.run()
		return
	}
	if p.envSched != nil {
		p.envSched.AfterCall(wait, pendingFetchRun, pf)
		return
	}
	p.env.After(wait, pf.run)
}

func (pf *pendingFetch) run() {
	p := pf.p
	if p.closed {
		return
	}
	resp := pf.resp
	resp.Received = p.env.Now()
	p.Inspector.SawResponse(resp)
	pf.cb(resp, pf.arg)
}

// Fetch implements the library Env: the request is recorded by the
// inspector, sent through the raw network, and its response delivery is
// serialized through the page's main thread before cb runs.
func (p *Page) Fetch(req *webreq.Request, cb func(*webreq.Response)) {
	p.FetchCall(req, runFetchFunc, cb)
}

// runFetchFunc adapts a Fetch callback to the FetchCall convention.
func runFetchFunc(resp *webreq.Response, a any) { a.(func(*webreq.Response))(resp) }

// FetchCall is Fetch with a receiver-style callback: fn(resp, arg) runs
// on delivery. With a closure-free Env underneath, a fetch whose
// callback is a package-level function allocates nothing.
func (p *Page) FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any) {
	if p.closed {
		return
	}
	if req.Sent.IsZero() {
		req.Sent = p.env.Now()
	}
	if req.Referer == "" {
		req.Referer = p.URL
	}
	req.ID = p.Inspector.NextID()
	p.Inspector.SawRequest(req)
	pf := p.fetches.Alloc()
	*pf = pendingFetch{p: p, cb: fn, arg: arg, reqID: req.ID}
	if p.envFetch != nil {
		p.envFetch.FetchCall(req, pendingFetchNet, pf)
		return
	}
	p.env.Fetch(req, pf.onNet)
}

// ScriptRuntime interprets the scripts found in a loaded document — the
// stand-in for a JS engine. Implementations (package pagert) recognize
// known HB library URLs and drive the corresponding protocol emulation.
type ScriptRuntime interface {
	// RunScripts is called once the document and its header scripts have
	// been fetched. settle must be invoked when page activity concludes
	// (it is safe to never call it; the crawler enforces deadlines).
	RunScripts(p *Page, doc *htmlmeta.Document, settle func())
}

// VisitResult summarizes a completed page visit.
type VisitResult struct {
	URL        string
	Loaded     bool
	TimedOut   bool
	Err        string
	DocLatency time.Duration
	Settled    bool
}

// Browser loads pages on an Env using a ScriptRuntime.
type Browser struct {
	Env     Env
	Runtime ScriptRuntime
	Opts    Options
}

// New creates a browser.
func New(env Env, rt ScriptRuntime, opts Options) *Browser {
	return &Browser{Env: env, Runtime: rt, Opts: opts}
}

// visitState carries one visit (timeout, document load, script fetches,
// runtime start) across its async steps. The previous implementation
// threaded the same state through a chain of per-visit closures; the
// struct lives in its page, is rewound by the page's next visit and
// rides the closure-free fetch and timer paths.
type visitState struct {
	b         *Browser
	page      *Page
	res       VisitResult
	done      func(*Page, *VisitResult)
	finished  bool
	started   time.Time
	remaining int // script fetches outstanding
}

func (vs *visitState) finish() {
	if !vs.finished {
		vs.finished = true
		if vs.done != nil {
			vs.done(vs.page, &vs.res)
		}
	}
}

func visitDocCall(resp *webreq.Response, a any)    { a.(*visitState).onDoc(resp) }
func visitScriptCall(resp *webreq.Response, a any) { a.(*visitState).onScript(resp) }

// visitTimeout aborts the visit at the page-load deadline.
func visitTimeout(a any) {
	vs := a.(*visitState)
	if !vs.finished {
		vs.res.TimedOut = true
		vs.page.Close()
		vs.finish()
	}
}

// onDoc handles the document response: on success it fetches each
// external script in document order (these fetches are what the request
// inspector and the static analyzer both see), then starts the runtime.
func (vs *visitState) onDoc(resp *webreq.Response) {
	if vs.finished {
		return
	}
	b := vs.b
	vs.res.DocLatency = b.Env.Now().Sub(vs.started)
	if resp.Err != "" || !resp.OK() {
		vs.res.Err = errString(resp)
		vs.finish()
		return
	}
	vs.res.Loaded = true
	doc := &vs.page.doc
	htmlmeta.ParseInto(doc, resp.Body)
	vs.page.Doc = doc
	for _, s := range doc.Scripts {
		if s.Src != "" {
			vs.remaining++
		}
	}
	if vs.remaining == 0 {
		vs.scriptsReady()
		return
	}
	for _, s := range doc.Scripts {
		if s.Src == "" {
			continue
		}
		req := vs.page.NewRequest()
		req.URL, req.Method, req.Kind = s.Src, webreq.GET, webreq.KindScript
		vs.page.FetchCall(req, visitScriptCall, vs)
	}
}

func (vs *visitState) onScript(*webreq.Response) {
	vs.remaining--
	if vs.remaining == 0 {
		vs.scriptsReady()
	}
}

// scriptsReady runs once all header scripts are answered: hand the page
// to the script runtime, then report the visit.
func (vs *visitState) scriptsReady() {
	if vs.b.Runtime != nil {
		vs.b.Runtime.RunScripts(vs.page, vs.page.Doc, vs.page.settle)
	}
	vs.finish()
}

func (vs *visitState) settle() { vs.res.Settled = true }

// Visit loads url in a fresh page (clean slate: new bus, new inspector —
// the crawler's stateless policy) and invokes done when the document has
// loaded and scripts have been started, or on failure/timeout. Page
// activity continues after done; callers decide how long to let it settle.
func (b *Browser) Visit(url string, done func(*Page, *VisitResult)) *Page {
	return b.VisitPage(NewPage(b.Env, b.Opts), url, done)
}

// VisitPage is Visit on a caller-supplied (pooled) page. The page is
// rebound to this browser's Env and Options first, so a reused page is
// observationally identical to the fresh one Visit creates. The
// VisitResult done receives lives in the page until its next visit.
// done may be nil: Page.Result reads the same result afterwards.
func (b *Browser) VisitPage(page *Page, url string, done func(*Page, *VisitResult)) *Page {
	page.Rebind(b.Env, b.Opts)
	page.URL = url
	vs := &page.visit
	*vs = visitState{
		b:       b,
		page:    page,
		res:     VisitResult{URL: url},
		done:    done,
		started: b.Env.Now(),
	}

	if b.Opts.PageTimeout > 0 {
		if page.envSched != nil {
			page.envSched.AfterCall(b.Opts.PageTimeout, visitTimeout, vs)
		} else {
			b.Env.After(b.Opts.PageTimeout, func() { visitTimeout(vs) })
		}
	}

	docReq := page.NewRequest()
	docReq.URL, docReq.Method, docReq.Kind = url, webreq.GET, webreq.KindDocument
	page.FetchCall(docReq, visitDocCall, vs)
	return page
}

func errString(resp *webreq.Response) string {
	if resp.Err != "" {
		return resp.Err
	}
	return "http status " + strconv.Itoa(resp.Status)
}

// IsKnownHBLibrary reports whether a script URL loads one of the HB
// libraries the tool analyzes (prebid.js and variants, gpt.js,
// pubfood.js). Shared by the dynamic runtime and the static analyzer.
func IsKnownHBLibrary(src string) bool {
	s := strings.ToLower(src)
	for _, needle := range []string{
		"prebid", "gpt.js", "googletagservices", "pubfood",
		"pbjs", "hb-wrapper", "headerbid",
	} {
		if strings.Contains(s, needle) {
			return true
		}
	}
	return false
}
