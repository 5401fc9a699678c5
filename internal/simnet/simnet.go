// Package simnet is the virtual-clock network environment: hosts are
// registered with handlers, requests incur sampled round-trip and service
// latencies, and everything executes deterministically on a discrete-event
// scheduler. A crawl of 35,000 pages — hours of simulated protocol time —
// completes in seconds of wall time, which is what makes regenerating
// every figure of the paper practical on a laptop.
package simnet

import (
	"maps"
	"strconv"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/rng"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Handler services one request at a virtual host. It returns the response
// body/status plus the server-side service time; the network adds
// transport latency around it.
type Handler func(req *webreq.Request) (status int, body string, service time.Duration)

// FaultMode injects transport- and payload-level failures for a host —
// the mechanical side of the overlay.Fault vocabulary. All probabilistic
// draws come from a dedicated fault stream seeded from the visit seed,
// created lazily on the first draw: a fault-free visit takes zero extra
// draws and allocates nothing, so its output stays byte-identical to a
// network without fault support at all.
type FaultMode struct {
	// FailProb is the probability a request errors at transport level.
	FailProb float64
	// Err is the error string reported ("connection refused", ...).
	Err string
	// ExtraLatency is added to every request to this host.
	ExtraLatency time.Duration

	// SpikeProb adds SpikeLatency (default 1s) to the round trip with
	// this probability.
	SpikeProb    float64
	SpikeLatency time.Duration

	// SlowLorisProb delays response delivery by SlowLorisStretch
	// (default 15s) with this probability: the handler runs, but the
	// body trickles in.
	SlowLorisProb    float64
	SlowLorisStretch time.Duration

	// ResetMidBodyProb fails the request with this probability *after*
	// the handler ran: the client waits out the service time, then gets
	// a transport error instead of the body.
	ResetMidBodyProb float64

	// TruncateProb cuts the response body to a random prefix with this
	// probability (malformed payload).
	TruncateProb float64

	// GarbleProb injects a foreign field at the front of a JSON object
	// body with this probability (valid JSON, unknown shape).
	GarbleProb float64

	// OutageStart/OutageDuration: every request whose virtual elapsed
	// time since the network's last Reset falls in [OutageStart,
	// OutageStart+OutageDuration) fails. Draw-free.
	OutageStart    time.Duration
	OutageDuration time.Duration

	// FlapPeriod alternates the host up/down with this period, up
	// first. Draw-free.
	FlapPeriod time.Duration

	// RampPerSecond adds failure probability per elapsed virtual second
	// on top of FailProb.
	RampPerSecond float64
}

// BoundHandler is the closure-free form of Handler: a static function
// plus the receiver-style argument it is invoked with. Because func
// values and pointers are both pointer-shaped, building and memoizing a
// BoundHandler never allocates — unlike binding a closure per host per
// visit, which was one of the largest remaining allocation sites in the
// crawl profile (sitegen.(*visitResolver).Resolve, 5.6% of allocs).
type BoundHandler struct {
	Fn  func(req *webreq.Request, arg any) (status int, body string, service time.Duration)
	Arg any
}

func (h BoundHandler) call(req *webreq.Request) (int, string, time.Duration) {
	return h.Fn(req, h.Arg)
}

// runPlainHandler adapts a closure-style Handler to the BoundHandler
// calling convention, so the network stores one handler representation.
func runPlainHandler(req *webreq.Request, arg any) (int, string, time.Duration) {
	return arg.(Handler)(req)
}

// CallResolver lazily supplies handlers for hosts that were not
// explicitly registered with Handle. The network consults it on the
// first request to an unknown host and memoizes the result, so a world
// with thousands of potential hosts only materializes handlers for the
// handful a visit actually contacts (see sitegen.World.InstallVisit).
// It yields a pre-bound (fn, arg) pair, never a closure per host.
type CallResolver interface {
	// ResolveCall maps a registrable-domain key to a bound handler;
	// ok=false means the host does not exist (dead DNS).
	ResolveCall(domainKey string) (h BoundHandler, ok bool)
}

// Network is a simulated internet: virtual hosts + latency model, driven
// by a shared scheduler.
type Network struct {
	Sched *clock.Scheduler

	hosts        map[string]BoundHandler
	callResolver CallResolver
	resolved     map[string]BoundHandler // memoized resolver hits; flushed by SetCallResolver
	faults       FaultTable
	faultsShared bool // faults came from ShareFaults: read-only, copied before the first write
	rng          *rng.Stream
	frng         *rng.Stream // fault draws only; lazily created, see frand
	seed         int64
	start        time.Time // virtual time of New/Reset; outage/flap/ramp reference
	baseRTT      time.Duration
	jitter       time.Duration

	// calls holds the visit's in-flight fetches (see netCall); gen is
	// bumped by Reset, so an event still queued for a call made before
	// the reset finds its generation stale and does nothing.
	calls webreq.Slab[netCall]
	gen   uint64

	// Requests counts every Fetch, for traffic accounting. BytesOut and
	// BytesIn are the virtual wire volume: request URL+payload bytes
	// out, response payload bytes in (whatever survives faulting). Plain
	// int adds on the visit-private network — always on, harvested into
	// the obs telemetry registry once per visit.
	Requests int
	BytesOut int
	BytesIn  int
}

// New creates a network on the given scheduler with the given seed.
// The network starts without a fault table: the crawler compiles an
// overlay's faults once per crawl and installs that table on each visit
// with ShareFaults, and a Fault call creates a private table on demand.
func New(sched *clock.Scheduler, seed int64) *Network {
	return &Network{
		Sched:   sched,
		hosts:   make(map[string]BoundHandler, 2),
		rng:     rng.New(seed),
		seed:    seed,
		start:   sched.Now(),
		baseRTT: 30 * time.Millisecond,
		jitter:  20 * time.Millisecond,
	}
}

// Seed returns the seed the network was created with, so server-side
// state built per network (per crawl visit) can derive independent but
// reproducible randomness.
func (n *Network) Seed() int64 { return n.seed }

// Reset returns the network to the state New(sched, seed) would produce,
// reusing the host and memoization tables' storage and the in-flight
// call slab. The crawler pools one network per worker and resets it
// between clean-slate visits, after resetting the scheduler; the
// byte-identical-JSONL determinism suite is the proof no state survives
// the reset. Calls made before the reset never complete: their queued
// events are no-ops.
func (n *Network) Reset(seed int64) {
	n.gen++
	if n.Sched.Pending() == 0 {
		n.calls.Reset()
	} else {
		// Events still queued point into the slab; rewinding it would
		// hand their slots to new calls. Leave the old storage to them.
		n.calls = webreq.Slab[netCall]{}
	}
	clear(n.hosts)
	clear(n.resolved)
	n.callResolver = nil
	n.faults, n.faultsShared = nil, false // never clear: the table may be shared
	n.rng.Reseed(seed)
	if n.frng != nil {
		// Reseed rather than drop: a pooled worker that injected faults
		// on a previous visit must draw the exact sequence a fresh
		// network would (see frand), and keeping the stream avoids an
		// allocation per faulted visit.
		n.frng.Reseed(seed ^ faultSeedMix)
	}
	n.seed = seed
	n.start = n.Sched.Now()
	n.baseRTT = 30 * time.Millisecond
	n.jitter = 20 * time.Millisecond
	n.Requests = 0
	n.BytesOut = 0
	n.BytesIn = 0
}

// SetRTT adjusts the base round-trip time and jitter of the network.
func (n *Network) SetRTT(base, jitter time.Duration) {
	n.baseRTT, n.jitter = base, jitter
}

// Handle registers (or replaces) a virtual host. Host matching is by
// exact lower-case hostname.
//
//hbvet:allow deadexport test seam: the simnet tests and the crawler's chaos tests register stub hosts with it; a crawl resolves its hosts through SetCallResolver
func (n *Network) Handle(host string, h Handler) {
	n.hosts[hostKey(host)] = BoundHandler{Fn: runPlainHandler, Arg: h}
}

// SetCallResolver installs (or clears, with nil) the lazy host resolver.
// Explicit Handle registrations take precedence. Handlers memoized from
// a previous resolver are flushed, so re-installing a world (a new
// resolver bound to a new per-visit ecosystem) never serves handlers
// captured for the old one.
func (n *Network) SetCallResolver(r CallResolver) {
	n.callResolver = r
	clear(n.resolved) // storage is reused; the entries must not be
}

// lookup finds the handler for a registrable-domain key: the explicit
// host table first, then the memoized resolver results, then the
// resolver itself.
func (n *Network) lookup(key string) (BoundHandler, bool) {
	if h, ok := n.hosts[key]; ok {
		return h, true
	}
	if h, ok := n.resolved[key]; ok {
		return h, true
	}
	if n.callResolver != nil {
		if h, ok := n.callResolver.ResolveCall(key); ok {
			n.memoize(key, h)
			return h, true
		}
	}
	return BoundHandler{}, false
}

func (n *Network) memoize(key string, h BoundHandler) {
	if n.resolved == nil {
		n.resolved = make(map[string]BoundHandler, 16)
	}
	n.resolved[key] = h
}

// FaultTable maps host keys to fault modes: the form in which a network
// looks faults up. A crawl compiles its overlay's fault rules into one
// table before the first visit and every visit's network reads it by
// reference (ShareFaults), so a table is read-only once shared.
type FaultTable map[string]FaultMode

// Set installs f for host, keyed the way the network resolves requests
// (by registrable domain): hosts sharing a domain share one entry, and
// the later Set wins.
func (t FaultTable) Set(host string, f FaultMode) {
	t[hostKey(host)] = f
}

// ShareFaults installs t as the network's fault table by reference. Any
// number of networks on any number of goroutines may share one table:
// the network never writes it — Fault and ClearFault copy it first —
// and Reset only drops the reference. nil leaves the network fault-free.
func (n *Network) ShareFaults(t FaultTable) {
	n.faults, n.faultsShared = t, t != nil
}

// Fault installs a fault mode for a host.
//
//hbvet:allow deadexport test seam: the simnet fault tests and the crawler's VisitHook chaos tests (faults_test.go) inject per-host faults with it; a crawl shares its compiled table through ShareFaults
func (n *Network) Fault(host string, f FaultMode) {
	n.ownFaults()
	if n.faults == nil {
		n.faults = make(FaultTable, 4)
	}
	n.faults.Set(host, f)
}

// ClearFault removes a host's fault mode.
//
//hbvet:allow deadexport test seam: the simnet fault tests and the crawler's VisitHook chaos tests (faults_test.go) lift injected faults with it
func (n *Network) ClearFault(host string) {
	n.ownFaults()
	delete(n.faults, hostKey(host))
}

// ownFaults gives the network a private copy of a shared fault table
// before its first write, so a per-visit hook never reaches the table
// other visits are reading.
func (n *Network) ownFaults() {
	if n.faultsShared {
		n.faults, n.faultsShared = maps.Clone(n.faults), false
	}
}

// faultSeedMix separates the fault stream from the latency-jitter
// stream: fault draws must not perturb the RTT sequence of requests to
// healthy hosts, or a single faulted partner would shift every other
// latency in the visit and the "same seed, fault-free" baseline would
// no longer be a controlled comparison.
const faultSeedMix = 0x5fe7eea7c2b6db15

// frand returns the fault-draw stream, creating it on first use. The
// lazy creation plus the Reset reseed above guarantee the k-th fault
// draw of a visit is identical whether the network is fresh or pooled.
func (n *Network) frand() *rng.Stream {
	if n.frng == nil {
		n.frng = rng.New(n.seed ^ faultSeedMix)
	}
	return n.frng
}

// applyFault evaluates a host's fault mode for one request. It returns
// true when the request fails before reaching the server (nc.resp.Err set);
// otherwise it may stretch nc.rtt and arm payload effects on nc
// (truncation, garbling, mid-body reset, slow-loris delay). Draws are
// taken in a fixed order, each gated only on the fault's configuration —
// never on another draw's outcome — so the stream position after k
// requests is a pure function of (seed, fault config, request order).
func (n *Network) applyFault(nc *netCall, f *FaultMode) bool {
	nc.rtt += f.ExtraLatency

	// Availability windows are functions of virtual time alone.
	elapsed := n.Sched.Now().Sub(n.start)
	if f.OutageDuration > 0 && elapsed >= f.OutageStart && elapsed < f.OutageStart+f.OutageDuration {
		nc.resp.Err = faultErrString(f, "connection refused")
		return true
	}
	if f.FlapPeriod > 0 && (elapsed/f.FlapPeriod)%2 == 1 {
		nc.resp.Err = faultErrString(f, "connection refused")
		return true
	}

	if p := f.FailProb + f.RampPerSecond*elapsed.Seconds(); p > 0 && n.frand().Bool(p) {
		nc.resp.Err = faultErrString(f, "connection reset")
		return true
	}
	if f.SpikeProb > 0 && n.frand().Bool(f.SpikeProb) {
		if f.SpikeLatency > 0 {
			nc.rtt += f.SpikeLatency
		} else {
			nc.rtt += time.Second
		}
	}
	if f.SlowLorisProb > 0 && n.frand().Bool(f.SlowLorisProb) {
		if f.SlowLorisStretch > 0 {
			nc.slow = f.SlowLorisStretch
		} else {
			nc.slow = 15 * time.Second
		}
	}
	if f.ResetMidBodyProb > 0 && n.frand().Bool(f.ResetMidBodyProb) {
		nc.resetMid = true
		nc.resp.Err = faultErrString(f, "connection reset mid-body")
	}
	if f.TruncateProb > 0 && n.frand().Bool(f.TruncateProb) {
		// Keep a meaningful prefix so the payload is plausibly partial
		// rather than empty: 15–85% of the body survives.
		nc.truncFrac = 0.15 + 0.7*n.frand().Float64()
	}
	if f.GarbleProb > 0 && n.frand().Bool(f.GarbleProb) {
		nc.garble = true
	}
	return false
}

func faultErrString(f *FaultMode, def string) string {
	if f.Err != "" {
		return f.Err
	}
	return def
}

// garbleBody prepends a foreign field to a JSON object body, keeping it
// valid JSON of an unknown shape — the payload class that must push the
// rtb codec off its all-or-nothing fast path and onto encoding/json.
func garbleBody(body string) string {
	if len(body) < 2 || body[0] != '{' {
		return body
	}
	if body[1] == '}' {
		return `{"x_chaos":1}` + body[2:]
	}
	return `{"x_chaos":1,` + body[1:]
}

func hostKey(h string) string {
	return urlkit.RegistrableDomain(h)
}

// Env returns a browser.Env view of the network. All pages on one network
// share the scheduler (single logical thread), matching a single-browser
// crawl process.
func (n *Network) Env() *Env { return &Env{net: n} }

// Env adapts Network to the browser.Env interface.
type Env struct {
	net *Network
}

// Now returns the virtual time.
func (e *Env) Now() time.Time { return e.net.Sched.Now() }

// After schedules fn after d of virtual time.
func (e *Env) After(d time.Duration, fn func()) { e.net.Sched.After(d, fn) }

// Post schedules fn as soon as possible.
func (e *Env) Post(fn func()) { e.net.Sched.Post(fn) }

// netCall is the state of one in-flight simulated fetch. The fetch
// pipeline (arrive at server -> run handler -> deliver response) rides
// one struct through the scheduler's closure-free AfterCall path, and
// the struct lives in the network's slab with its response inline: a
// pooled network allocates nothing per fetch, and the *Response a page
// records stays valid until the network's next Reset.
type netCall struct {
	net     *Network
	gen     uint64 // net.gen at the fetch; a mismatch marks a stale event
	handler BoundHandler
	req     *webreq.Request
	cfn     func(*webreq.Response, any)
	carg    any
	rtt     time.Duration
	// resp is filled at the server and delivered at the page; a
	// transport failure sets only Err.
	resp webreq.Response

	// Armed fault effects (applyFault); all zero on the fault-free path.
	slow      time.Duration // slow-loris: extra delay before delivery
	truncFrac float64       // truncate body to this fraction when > 0
	garble    bool          // rewrite body with a foreign JSON field
	resetMid  bool          // fail after the handler ran (resp.Err set)
}

// stale reports whether nc was made before the network's last Reset.
func (nc *netCall) stale() bool { return nc.gen != nc.net.gen }

// netCallArrive runs when the request reaches the server (after rtt/2):
// the handler computes the response, and delivery is scheduled after the
// service time plus the return half of the RTT.
func netCallArrive(a any) {
	nc := a.(*netCall)
	if nc.stale() {
		return
	}
	status, body, service := nc.handler.call(nc.req)
	if service < 0 {
		service = 0
	}
	delay := service + nc.rtt/2 + nc.slow
	if nc.resetMid {
		// The server committed to a response; the connection died while
		// it was in flight. The client pays the full wait and gets a
		// transport error instead of a body.
		nc.net.Sched.AfterCall(delay, netCallDeliver, nc)
		return
	}
	if nc.truncFrac > 0 && len(body) > 0 {
		body = body[:int(float64(len(body))*nc.truncFrac)]
	}
	if nc.garble {
		body = garbleBody(body)
	}
	nc.net.BytesIn += len(body)
	nc.resp.Status, nc.resp.Body = status, body
	nc.net.Sched.AfterCall(delay, netCallDeliver, nc)
}

// netCallDeliver hands the response (or the transport error) to the
// caller's callback.
func netCallDeliver(a any) {
	nc := a.(*netCall)
	if nc.stale() {
		return
	}
	nc.resp.RequestID = nc.req.ID
	nc.cfn(&nc.resp, nc.carg)
}

// runPlainCallback adapts a Fetch callback to the FetchCall convention.
func runPlainCallback(resp *webreq.Response, arg any) {
	arg.(func(*webreq.Response))(resp)
}

// Fetch resolves the request's host, applies faults, runs the handler at
// the server after half an RTT, and delivers the response after service
// time plus the other half RTT. Unknown hosts fail like dead DNS.
func (e *Env) Fetch(req *webreq.Request, cb func(*webreq.Response)) {
	e.fetch(req, runPlainCallback, cb)
}

// FetchCall is Fetch with a receiver-style callback (fn(resp, arg)); it
// implements the browser's closure-free CallFetcher capability.
func (e *Env) FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any) {
	e.fetch(req, fn, arg)
}

// AfterCall schedules fn(arg) after d of virtual time (the browser's
// closure-free CallScheduler capability).
func (e *Env) AfterCall(d time.Duration, fn func(any), arg any) {
	e.net.Sched.AfterCall(d, fn, arg)
}

func (e *Env) fetch(req *webreq.Request, fn func(*webreq.Response, any), arg any) {
	n := e.net
	nc := n.calls.Alloc()
	*nc = netCall{net: n, gen: n.gen, req: req, cfn: fn, carg: arg}
	n.Requests++
	n.BytesOut += len(req.URL) + req.BodyLen()
	host := req.Host()
	key := req.RegistrableHost()
	handler, ok := n.lookup(key)

	rtt := n.baseRTT
	if n.jitter > 0 {
		rtt += time.Duration(n.rng.Float64() * float64(n.jitter))
	}
	nc.rtt = rtt

	if fault, hasFault := n.faults[key]; hasFault {
		if n.applyFault(nc, &fault) {
			n.Sched.AfterCall(nc.rtt, netCallDeliver, nc)
			return
		}
	}

	if !ok {
		// Unresolvable host: error after a DNS-ish delay.
		nc.resp.Err = "no such host " + strconv.Quote(host)
		n.Sched.AfterCall(nc.rtt, netCallDeliver, nc)
		return
	}

	// Request reaches the server after rtt/2; handler computes the
	// response and its service time; delivery lands rtt/2 after that.
	nc.handler = handler
	n.Sched.AfterCall(nc.rtt/2, netCallArrive, nc)
}
