// Package crawler orchestrates the measurement crawl: it visits each site
// with a clean-slate browser instance (no history, no cookies, no
// profile), attaches a fresh HBDetector, enforces the paper's timing
// policy (60s page-load timeout, then five extra seconds for pending
// responses), and emits one dataset record per visit.
//
// Two execution strategies exist:
//
//   - Simulated (virtual clock): each site gets its own scheduler and
//     simulated network, so visits are deterministic and embarrassingly
//     parallel across worker goroutines — the full 35k crawl runs in
//     seconds.
//   - Live (real HTTP): the same visit logic over package livenet, used
//     by integration tests and the live examples.
//
// The primary entry point is CrawlStream: it pushes each completed visit
// to a caller-supplied emit function in deterministic crawl order (by
// day, then rank) the moment it becomes emittable, honors context
// cancellation, and never materializes the dataset. CrawlWorld is the
// batch convenience built on top of it.
package crawler

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/clock"
	"headerbid/internal/core"
	"headerbid/internal/dataset"
	"headerbid/internal/obs"
	"headerbid/internal/overlay"
	"headerbid/internal/pagert"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
)

// Options tunes the crawl.
type Options struct {
	// PageTimeout mirrors the paper's 60-second page-load cutoff.
	PageTimeout time.Duration
	// SettleTime is the extra wait after page activity for pending
	// responses — the paper's "extra five seconds".
	SettleTime time.Duration
	// Workers bounds crawl parallelism (simulated mode); 0 = NumCPU.
	Workers int
	// Days crawls each HB site this many times (the paper crawled its 5k
	// HB sites daily for 34 days). Day 0 visits every site; subsequent
	// days revisit only sites where HB was detected.
	Days int
	// Seed namespaces the per-visit randomness.
	Seed int64
	// FirstDay offsets the crawl calendar: the crawl covers days
	// FirstDay..FirstDay+Days-1. The first crawled day visits every site;
	// later days revisit HB sites. Default 0.
	FirstDay int
	// Filter restricts the crawl to sites it returns true for (nil = all).
	// Useful for single-site or single-facet experiments.
	Filter func(*sitegen.Site) bool
	// NoQueueing disables the single-threaded JS main-thread model
	// (browser handler cost), for the §7.2 ablation.
	NoQueueing bool
	// Detector overrides the detector channels (nil = both channels, the
	// paper's configuration), for the detection-method ablation.
	Detector *core.Options
	// Overlay applies a per-visit scenario intervention (timeout
	// override, partner-pool cap, cookie-sync suppression, network
	// profile) without mutating the shared world: wrapper config is
	// transformed on a private copy by the page runtime and the network
	// profile is set on the visit's pooled network. nil (or a zero
	// overlay) reproduces the uninstrumented crawl byte-for-byte — the
	// contract the scenario engine's base variant relies on.
	Overlay *overlay.Overlay
	// VisitHook, when non-nil, runs at the start of every visit, after
	// the per-visit network is installed but before the page is opened.
	// It executes inside the crawler's panic-quarantine boundary; chaos
	// tests use it to corrupt handlers or inject in-visit panics.
	// Production crawls leave it nil.
	VisitHook func(net *simnet.Network, s *sitegen.Site, day int)
	// Trace selects visits for span recording (nil = no tracing). The
	// selection is made against each day's rank-ordered job list before
	// workers start, so which visits are traced — and the resulting
	// trace bytes — do not depend on worker count.
	Trace *obs.TracePlan
	// Telemetry, when non-nil, receives run-level operational counters
	// (visits, pool reuse, wire volume) harvested once per completed
	// visit on the worker goroutine that produced it.
	Telemetry *obs.Registry
}

// ResolvedWorkers is the worker count a crawl actually runs with
// (Workers, defaulting to NumCPU when unset) — and therefore the shard
// count a FoldFunc observes. Single owner of the defaulting rule; size
// shard state with this, never with Workers directly.
func (o Options) ResolvedWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// DefaultOptions mirror the paper's crawl configuration with one
// measurement day.
func DefaultOptions(seed int64) Options {
	return Options{
		PageTimeout: 60 * time.Second,
		SettleTime:  5 * time.Second,
		Workers:     0,
		Days:        1,
		Seed:        seed,
	}
}

// Visit is one completed site visit as seen by a streaming consumer.
// Done/Total describe progress within the current crawl day (the job
// count of later days is only known once the first day's HB detections
// are in, so totals are per-day by construction).
type Visit struct {
	Record *dataset.SiteRecord
	Day    int // crawl day of this visit
	Done   int // visits emitted so far this day (1-based, this one included)
	Total  int // visits scheduled this day
	// Trace holds the visit's recorded spans when the crawl's TracePlan
	// selected it (nil otherwise). Like Record, it arrives in
	// deterministic crawl order.
	Trace *obs.VisitSpans
}

// EmitFunc receives each visit in deterministic crawl order (by day, then
// rank). Returning a non-nil error aborts the crawl and surfaces the
// error from CrawlStream.
type EmitFunc func(Visit) error

// FoldFunc receives each completed record on the worker goroutine that
// produced it, before the record enters the ordered reorder window —
// the sharded accumulation path of the metrics API. shard is the worker
// index (0 <= shard < resolved Workers): calls with the same shard value
// are serialized, calls with different shard values run concurrently, so
// a caller keeping strictly shard-local state needs no locks. Records
// arrive in per-worker completion order, not crawl order; consumers must
// be order-insensitive (every analysis.Metric is, by contract). On
// cancellation or emit error, in-flight visits may still be folded even
// though they are never emitted.
type FoldFunc func(shard int, r *dataset.SiteRecord)

type crawlJob struct {
	site *sitegen.Site
	day  int
}

// CrawlStream runs the full measurement over a generated world on the
// simulated network, pushing each record to emit the moment it becomes
// emittable in order — no record is retained by the crawler itself.
// Visits run on opts.Workers goroutines; a small reorder window (bounded
// by worker count) restores deterministic order, so the stream is
// byte-identical to the batch path regardless of scheduling.
//
// CrawlStream returns ctx.Err() as soon as the context is cancelled
// (in-flight visits finish but are not emitted), or the first error
// returned by emit. An overlay fault naming a partner the world's
// registry does not know is an error before the first visit.
func CrawlStream(ctx context.Context, w *sitegen.World, opts Options, emit EmitFunc) error {
	return CrawlStreamSharded(ctx, w, opts, emit, nil)
}

// CrawlStreamSharded is CrawlStream with a per-worker fold hook: each
// completed record is additionally handed to fold on the worker
// goroutine that produced it, off the order-preserving emit path — the
// crawl-side half of sharded metric accumulation (the caller merges the
// shards at run end). fold may be nil.
func CrawlStreamSharded(ctx context.Context, w *sitegen.World, opts Options, emit EmitFunc, fold FoldFunc) error {
	opts.Workers = opts.ResolvedWorkers()
	if opts.Days <= 0 {
		opts.Days = 1
	}
	if emit == nil {
		emit = func(Visit) error { return nil }
	}
	faults, err := compileFaults(w, opts.Overlay)
	if err != nil {
		return err
	}

	// First day: every site (subject to Filter). Later days: HB sites
	// only, decided from the first day's emitted records.
	first := make([]crawlJob, 0, len(w.Sites))
	for _, s := range w.Sites {
		if opts.Filter != nil && !opts.Filter(s) {
			continue
		}
		first = append(first, crawlJob{site: s, day: opts.FirstDay})
	}

	hbDomains := make(map[string]bool)
	track := func(v Visit) error {
		if v.Record.HB {
			hbDomains[v.Record.Domain] = true
		}
		return emit(v)
	}
	if err := streamDay(ctx, w, first, opts, faults, track, fold); err != nil {
		return err
	}

	for day := opts.FirstDay + 1; day < opts.FirstDay+opts.Days; day++ {
		var jobs []crawlJob
		for _, s := range w.Sites {
			if hbDomains[s.Domain] {
				jobs = append(jobs, crawlJob{site: s, day: day})
			}
		}
		if err := streamDay(ctx, w, jobs, opts, faults, emit, fold); err != nil {
			return err
		}
	}
	return nil
}

// streamDay crawls one day's job list with a worker pool, folding each
// record on its worker goroutine and emitting the records in job order.
// faults is the crawl's compiled fault table, shared read-only by every
// worker's network.
func streamDay(parent context.Context, w *sitegen.World, jobs []crawlJob, opts Options, faults simnet.FaultTable, emit EmitFunc, fold FoldFunc) error {
	// An internal cancel stops the feeder both on caller cancellation and
	// on emit error, so workers drain promptly in either case.
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	type result struct {
		rec   *dataset.SiteRecord
		spans *obs.VisitSpans
		idx   int
	}
	jobCh := make(chan int)
	resCh := make(chan result, opts.Workers)

	// Trace selection happens here, against the day's job order, before
	// any worker starts: traced[i] is a pure function of the plan and the
	// rank-ordered domain list, never of completion order.
	var traced []bool
	if opts.Trace != nil {
		domains := make([]string, len(jobs))
		for i, j := range jobs {
			domains[i] = j.site.Domain
		}
		traced = opts.Trace.Select(domains)
	}

	var wg sync.WaitGroup
	for wk := 0; wk < opts.Workers; wk++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			// One pooled scheduler+network per worker, reset between
			// visits: per-visit determinism depends only on the seeds,
			// so reuse changes no output bytes (the workers-1-vs-N
			// JSONL test is the standing proof) while eliminating the
			// per-visit construction the allocation profile blamed.
			vrt := newVisitRuntime()
			var wtrace *obs.VisitTrace // lazily pooled per-worker recorder
			reg := opts.Telemetry
			if reg != nil {
				reg.Worker(shard).PoolMisses.Add(1)
			}
			for idx := range jobCh {
				j := jobs[idx]
				vt := (*obs.VisitTrace)(nil)
				if traced != nil && traced[idx] {
					if wtrace == nil {
						wtrace = obs.NewVisitTrace()
					}
					vt = wtrace
					if vt.Enabled() {
						vt.Reset()
					}
				}
				prev := vrt
				rec := quarantineVisit(&vrt, w, j.site, j.day, opts, faults, vt)
				var spans *obs.VisitSpans
				if vt.Enabled() {
					spans = vt.Snapshot(j.site.Domain, j.day)
				}
				if reg != nil {
					harvestVisit(reg.Worker(shard), rec, vrt, prev, spans != nil)
				}
				if fold != nil {
					fold(shard, rec)
				}
				select {
				case resCh <- result{rec: rec, spans: spans, idx: idx}:
				case <-ctx.Done():
					return
				}
			}
		}(wk)
	}
	go func() {
		defer close(jobCh)
		for i := range jobs {
			select {
			case jobCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { wg.Wait(); close(resCh) }()

	// Reorder completion order back into job order before emitting. The
	// pending map never grows past the out-of-order window (≈ workers).
	pending := make(map[int]result, opts.Workers)
	next := 0
	var emitErr error
	for res := range resCh {
		if emitErr != nil || ctx.Err() != nil {
			cancel() // stop feeding; keep draining so workers can exit
			continue
		}
		pending[res.idx] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if err := emit(Visit{Record: r.rec, Day: r.rec.VisitDay, Done: next, Total: len(jobs), Trace: r.spans}); err != nil {
				emitErr = err
				cancel()
				break
			}
		}
	}
	if emitErr != nil {
		return emitErr
	}
	// Report cancellation of the caller's context, not our internal one.
	return parent.Err()
}

// CrawlWorld runs the full measurement and returns all site records
// (visit order: by day, then rank) — the batch convenience over
// CrawlStream for callers that want the whole dataset in memory. It
// returns no records when the overlay names an unknown fault target.
//
//hbvet:allow deadexport test seam: the reference fold of the determinism, golden-report and shard tests in the root package, analysis, crawler, report and snapshot; production streams with CrawlStream
func CrawlWorld(w *sitegen.World, opts Options) []*dataset.SiteRecord {
	all := make([]*dataset.SiteRecord, 0, len(w.Sites))
	// Background context + collecting emit: the only possible error is
	// an unknown fault target, returned before any record is emitted.
	_ = CrawlStream(context.Background(), w, opts, func(v Visit) error {
		all = append(all, v.Record)
		return nil
	})
	return all
}

// visitRuntime is the pooled per-worker simulation substrate: one
// scheduler, one network, one page (with its bus and inspector), one
// detector, one script runtime, and one world binding — all reset to a
// pristine, seeded state before every visit. Pooling never crosses
// goroutines, and a reset runtime is observationally identical to a
// fresh one (the byte-identical-JSONL determinism suite is the standing
// proof).
type visitRuntime struct {
	sched *clock.Scheduler
	net   *simnet.Network
	env   *simnet.Env
	det   *core.Detector

	// Lazily created on the first visit (they need the world/options),
	// then rebound every visit. Reset order matters: the scheduler is
	// reset first, which drops any callback still referencing the page,
	// so rebinding the page afterwards can never race a stale delivery.
	page    *browser.Page
	rt      *pagert.Runtime
	browser *browser.Browser
	binding sitegen.VisitBinding
}

func newVisitRuntime() *visitRuntime {
	sched := clock.NewScheduler(clock.Epoch)
	net := simnet.New(sched, 0)
	return &visitRuntime{sched: sched, net: net, env: net.Env(), det: new(core.Detector)}
}

// VisitSimulated performs one clean-slate visit of one site on a private
// virtual-clock network. Deterministic in (world seed, site, day). An
// overlay fault naming a partner the registry does not know yields a
// record carrying that error, with no visit made.
func VisitSimulated(w *sitegen.World, s *sitegen.Site, day int, opts Options) *dataset.SiteRecord {
	faults, err := compileFaults(w, opts.Overlay)
	if err != nil {
		return &dataset.SiteRecord{Domain: s.Domain, Rank: s.Rank, VisitDay: day, Err: err.Error()}
	}
	return newVisitRuntime().visit(w, s, day, opts, faults, nil)
}

// visit performs one clean-slate visit on the pooled runtime. The
// scheduler, network, page and detector are reset in that order — the
// "new, clean instance" policy from the paper — and only the hosts this
// visit can reach are installed. Their storage is reused by the next
// visit, so the returned record must not point into it (DESIGN.md
// §5.3). faults is opts.Overlay's compiled fault table (nil when it has
// none), installed by reference. vt is the visit's span recorder (nil
// for untraced visits: every emission below sits behind the nil-safe
// Enabled guard).
func (vrt *visitRuntime) visit(w *sitegen.World, s *sitegen.Site, day int, opts Options, faults simnet.FaultTable, vt *obs.VisitTrace) *dataset.SiteRecord {
	vrt.sched.Reset(clock.Epoch.AddDate(0, 0, day))
	vrt.net.Reset(visitSeed(opts.Seed, s.Domain, day))
	net := vrt.net
	sched := vrt.sched
	t0 := sched.Now()
	if ov := opts.Overlay; ov != nil && ov.Network != nil {
		net.SetRTT(ov.Network.BaseRTT, ov.Network.Jitter)
	}
	eco := w.InstallVisit(net, s, &vrt.binding)
	if vt.Enabled() {
		eco.SetTrace(vt)
	}
	net.ShareFaults(faults)
	if opts.VisitHook != nil {
		opts.VisitHook(net, s, day)
	}

	env := vrt.env
	if vrt.rt == nil {
		vrt.rt = pagert.New(w.Registry)
	}
	rt := vrt.rt
	rt.Registry = w.Registry
	rt.Configs = &w.Configs
	rt.Overlay = opts.Overlay
	bopts := browser.DefaultOptions()
	if opts.PageTimeout > 0 {
		bopts.PageTimeout = opts.PageTimeout
	}
	if opts.NoQueueing {
		bopts.HandlerCost = 0
	}
	if vrt.browser == nil {
		vrt.browser = browser.New(env, rt, bopts)
	}
	b := vrt.browser
	b.Env, b.Runtime, b.Opts = env, rt, bopts
	if vrt.page == nil {
		vrt.page = browser.NewPage(env, bopts)
	}

	page := b.VisitPage(vrt.page, s.PageURL(), nil)
	if vt.Enabled() {
		// Set after VisitPage: Rebind cleared the carrier. Safe — the
		// document only arrives once the scheduler runs below.
		page.Trace = vt
	}
	dopts := core.FullOptions()
	if opts.Detector != nil {
		dopts = *opts.Detector
	}
	det := vrt.det
	det.Reattach(page, w.Registry, dopts)

	// Drive the virtual clock: the page's whole life, bounded by the page
	// timeout plus the settle window (timeout + wrapper budget + 5s).
	budget := bopts.PageTimeout + opts.SettleTime + 15*time.Second
	sched.RunUntil(sched.Now().Add(budget))
	page.Close()

	ob := det.Observation()
	loaded, timedOut, errStr := false, false, ""
	if visit := page.Result(); visit != nil {
		loaded, timedOut, errStr = visit.Loaded, visit.TimedOut, visit.Err
	}
	if vt.Enabled() {
		status := "error"
		switch {
		case timedOut:
			status = "timeout"
		case loaded:
			status = "loaded"
		}
		vt.Span(obs.TrackPage, "visit", t0, sched.Now(), obs.SpanOpts{Detail: status})
	}
	rec := dataset.FromObservation(ob, s.Rank, day, loaded, timedOut, errStr)
	rec.Domain = s.Domain // authoritative (observation derives it from URL)
	return rec
}

// harvestVisit folds one completed visit into the run's telemetry shard.
// It runs on the worker goroutine; everything it reads (record, pooled
// network counters) belongs to that worker.
func harvestVisit(c *obs.Counters, rec *dataset.SiteRecord, vrt, prev *visitRuntime, traced bool) {
	c.Visits.Add(1)
	if rec.Loaded {
		c.Loaded.Add(1)
	}
	if rec.TimedOut {
		c.TimedOut.Add(1)
	}
	if rec.HB {
		c.HB.Add(1)
	}
	if rec.Quarantined {
		c.Quarantined.Add(1)
	}
	c.Retries.Add(uint64(rec.Retries))
	c.Abandoned.Add(uint64(rec.Abandoned))
	perr := 0
	for _, n := range rec.PartnerErrors {
		perr += n
	}
	c.PartnerErrors.Add(uint64(perr))
	if vrt == prev {
		c.PoolHits.Add(1)
	} else {
		// The quarantine boundary rebuilt the runtime mid-loop.
		c.PoolMisses.Add(1)
	}
	c.WireRequests.Add(uint64(vrt.net.Requests))
	c.WireBytesOut.Add(uint64(vrt.net.BytesOut))
	c.WireBytesIn.Add(uint64(vrt.net.BytesIn))
	if traced {
		c.TracedVisits.Add(1)
	}
}

// compileFaults translates the overlay's declarative fault rules into
// the host-key table every visit of a crawl shares. Rules apply in slice
// order; an empty or "*" target fans out over every registry partner in
// registry order, and a later rule wins on a shared host. A target that
// is neither of those nor a registry slug is an error: skipping it
// would crawl fault-free under the faulted variant's label.
func compileFaults(w *sitegen.World, ov *overlay.Overlay) (simnet.FaultTable, error) {
	if ov == nil || len(ov.Faults) == 0 {
		return nil, nil
	}
	t := make(simnet.FaultTable)
	for i := range ov.Faults {
		f := &ov.Faults[i]
		fm := simnet.FaultMode{
			FailProb:         f.FailProb,
			Err:              f.Err,
			ExtraLatency:     f.ExtraLatency,
			SpikeProb:        f.SpikeProb,
			SpikeLatency:     f.SpikeLatency,
			SlowLorisProb:    f.SlowLorisProb,
			SlowLorisStretch: f.SlowLorisStretch,
			ResetMidBodyProb: f.ResetMidBodyProb,
			TruncateProb:     f.TruncateProb,
			GarbleProb:       f.GarbleProb,
			OutageStart:      f.OutageStart,
			OutageDuration:   f.OutageDuration,
			FlapPeriod:       f.FlapPeriod,
			RampPerSecond:    f.RampPerSecond,
		}
		if f.Partner == "" || f.Partner == "*" {
			for _, p := range w.Registry.All() {
				t.Set(p.Host, fm)
			}
			continue
		}
		p, ok := w.Registry.BySlug(f.Partner)
		if !ok {
			return nil, fmt.Errorf("crawler: overlay fault targets unknown partner %q", f.Partner)
		}
		t.Set(p.Host, fm)
	}
	return t, nil
}

// quarantineVisit is the crawl's sanctioned panic boundary (the only
// place hbvet's recoverscope rule permits recover()): a panic anywhere
// inside a visit — page script, wrapper, detector — is converted into a
// quarantined, labeled SiteRecord instead of killing the worker. The
// pooled runtime is discarded and rebuilt, because a half-run visit can
// leave the scheduler/page in an arbitrary state that a Reset is not
// specified to recover from.
func quarantineVisit(vrtp **visitRuntime, w *sitegen.World, s *sitegen.Site, day int, opts Options, faults simnet.FaultTable, vt *obs.VisitTrace) (rec *dataset.SiteRecord) {
	defer func() {
		if r := recover(); r != nil {
			if vt.Enabled() {
				// The panicked runtime's clock still reads the moment of
				// death; capture it before discarding the runtime.
				vt.Instant(obs.TrackPage, "quarantine", (*vrtp).sched.Now(), fmt.Sprint(r))
			}
			*vrtp = newVisitRuntime()
			rec = quarantineRecord(s, day, r, debug.Stack())
		}
	}()
	return (*vrtp).visit(w, s, day, opts, faults, vt)
}

// quarantineRecord synthesizes the degraded record for a panicked
// visit: no observation survives, but the crawl stays accountable for
// the site — the record carries the day, the panic message, and a
// stable label of the panicking function.
func quarantineRecord(s *sitegen.Site, day int, cause any, stack []byte) *dataset.SiteRecord {
	return &dataset.SiteRecord{
		Domain:      s.Domain,
		Rank:        s.Rank,
		VisitDay:    day,
		Quarantined: true,
		PanicSite:   panicSite(stack),
		Err:         "panic: " + fmt.Sprint(cause),
	}
}

// panicSite extracts the function that panicked from a debug.Stack
// capture taken inside the recovering deferred function: the first
// frame after the panic() entry that is not runtime machinery. Only
// the function name is kept (no file:line), so the label is stable
// across build environments — determinism extends to panic records.
func panicSite(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "panic(") {
			continue
		}
		for j := i + 1; j < len(lines); j++ {
			ln := lines[j]
			if len(ln) == 0 || ln[0] == '\t' {
				continue // file:line detail of the previous frame
			}
			if strings.HasPrefix(ln, "runtime.") || strings.HasPrefix(ln, "panic(") {
				continue // runtime.panicmem / runtime.sigpanic / nested panic
			}
			if k := strings.LastIndexByte(ln, '('); k > 0 {
				return ln[:k]
			}
			return ln
		}
	}
	return ""
}

// visitSeed namespaces per-visit randomness so each (site, day) pair is an
// independent but reproducible sample.
func visitSeed(seed int64, domain string, day int) int64 {
	var h int64 = seed
	for _, c := range domain {
		h = h*1099511628211 + int64(c)
	}
	return h*31 + int64(day)
}

// Stats summarizes a crawl for logs.
type Stats struct {
	Visits   int
	Loaded   int
	TimedOut int
	HB       int
}

// Merge adds another shard's counters in.
func (s *Stats) Merge(o Stats) {
	s.Visits += o.Visits
	s.Loaded += o.Loaded
	s.TimedOut += o.TimedOut
	s.HB += o.HB
}

// Add folds one record into the stats.
func (s *Stats) Add(r *dataset.SiteRecord) {
	s.Visits++
	if r.Loaded {
		s.Loaded++
	}
	if r.TimedOut {
		s.TimedOut++
	}
	if r.HB {
		s.HB++
	}
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("visits=%d loaded=%d timedout=%d hb=%d", s.Visits, s.Loaded, s.TimedOut, s.HB)
}
