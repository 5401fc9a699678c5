package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"headerbid"
)

// tracer is the instrumentation of a -trace run. It only wraps the
// program's public calls (a probe Metric, a timed Sink, CPU and
// allocation profiles of the whole process); nothing inside the program
// changes. Odd rounds are traced and even rounds are not, so one run
// measures its own tracing overhead.
type tracer struct {
	on    atomic.Bool   // the open round is traced
	epoch atomic.Uint64 // bumped when a traced round starts

	mu     sync.Mutex
	folded map[*headerbid.SiteRecord]time.Time // fold end, awaiting emit

	// Written on the emit path, read once the run is over.
	emitNS int64
	emitN  int
	lagUS  []float64

	visits probeStats // merged probe shards of every traced round

	dir      string // profile files
	cpu      *os.File
	cpuFiles []string
	heapBase []string
	heapEnd  []string
	heapPeak uint64
	stopHeap chan struct{} // non-nil while the live-heap sampler runs
	heapDone sync.WaitGroup
}

func newTracer() (*tracer, error) {
	dir, err := os.MkdirTemp("", "hbbench-prof-")
	if err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	return &tracer{folded: make(map[*headerbid.SiteRecord]time.Time), dir: dir}, nil
}

// close removes the profile files.
func (t *tracer) close() {
	if t.cpu != nil {
		pprof.StopCPUProfile()
		t.cpu.Close()
	}
	t.stopSampler()
	os.RemoveAll(t.dir)
}

// startRound opens a traced round: the CPU profile runs until endRound.
func (t *tracer) startRound() error {
	f, err := os.CreateTemp(t.dir, "cpu-*.pb.gz")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.cpu = f
	t.epoch.Add(1)
	t.on.Store(true)
	return nil
}

func (t *tracer) endRound() error {
	t.on.Store(false)
	pprof.StopCPUProfile()
	name := t.cpu.Name()
	err := t.cpu.Close()
	t.cpu = nil
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.cpuFiles = append(t.cpuFiles, name)
	t.mu.Lock()
	clear(t.folded)
	t.mu.Unlock()
	return nil
}

// heapSnapshot writes the cumulative allocation profile after a forced
// GC (the profile only counts allocations up to the last completed
// cycle). The ledger subtracts each segment's base from its end.
func (t *tracer) heapSnapshot(base bool) error {
	runtime.GC()
	f, err := os.CreateTemp(t.dir, "allocs-*.pb.gz")
	if err != nil {
		return fmt.Errorf("allocs profile: %w", err)
	}
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("allocs profile: %w", werr)
	}
	if base {
		t.heapBase = append(t.heapBase, f.Name())
	} else {
		t.heapEnd = append(t.heapEnd, f.Name())
	}
	return nil
}

// startSampler polls the live heap (the bytes the last GC marked) until
// stopSampler; its maximum is runtime.heap_live_peak_mb.
func (t *tracer) startSampler() {
	stop := make(chan struct{})
	t.stopHeap = stop
	t.heapDone.Add(1)
	go func() {
		defer t.heapDone.Done()
		//hbvet:allow detwall the live-heap sampler polls on a wall-clock tick
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-stop:
				t.heapPeak = peak
				return
			case <-tick.C:
			}
		}
	}()
}

func (t *tracer) stopSampler() {
	if t.stopHeap == nil {
		return
	}
	close(t.stopHeap)
	t.stopHeap = nil
	t.heapDone.Wait()
}

// foldDone notes when a record left its worker's fold, so the emit
// path can measure how long it waited in the reorder window.
func (t *tracer) foldDone(r *headerbid.SiteRecord, at time.Time) {
	t.mu.Lock()
	t.folded[r] = at
	t.mu.Unlock()
}

// emitBegin starts timing one ordered emit; it returns the zero time
// when t is nil or the round is untraced.
func (t *tracer) emitBegin(r *headerbid.SiteRecord) time.Time {
	if t == nil || !t.on.Load() {
		return time.Time{}
	}
	now := wallNow()
	t.mu.Lock()
	at, ok := t.folded[r]
	delete(t.folded, r)
	t.mu.Unlock()
	if ok {
		t.lagUS = append(t.lagUS, us(now.Sub(at)))
	}
	return now
}

func (t *tracer) emitEnd(start time.Time) {
	if start.IsZero() {
		return
	}
	t.emitNS += int64(wallNow().Sub(start))
	t.emitN++
}

// collect merges a probe's shards into the run totals (nil-safe).
func (t *tracer) collect(p *probe) {
	if t != nil && p != nil {
		t.visits.merge(&p.st)
	}
}

// timedSink times the wrapped sink's Consume on traced rounds.
type timedSink struct {
	headerbid.Sink
	tr *tracer
}

func (s timedSink) Consume(v headerbid.Visit) error {
	start := s.tr.emitBegin(v.Record)
	err := s.Sink.Consume(v)
	s.tr.emitEnd(start)
	return err
}

// counts are the per-record protocol and measurement tallies, defined
// as the scenario engine's VariantResult defines them.
type counts struct {
	visits, hb, timedOut, quarantined     int
	bidPosts, bidErrors, retries, abandon int
	bids, late                            int
}

func (c *counts) add(r *headerbid.SiteRecord) {
	c.visits++
	if r.HB {
		c.hb++
	}
	if r.TimedOut {
		c.timedOut++
	}
	if r.Quarantined {
		c.quarantined++
	}
	c.bidPosts += r.Traffic.BidRequests
	for _, n := range r.PartnerErrors {
		c.bidErrors += n
	}
	c.retries += r.Retries
	c.abandon += r.Abandoned
	for _, a := range r.Auctions {
		for _, bid := range a.Bids {
			if bid.Source == "s2s" {
				continue
			}
			c.bids++
			if bid.Late {
				c.late++
			}
		}
	}
}

func (c *counts) merge(o counts) {
	c.visits += o.visits
	c.hb += o.hb
	c.timedOut += o.timedOut
	c.quarantined += o.quarantined
	c.bidPosts += o.bidPosts
	c.bidErrors += o.bidErrors
	c.retries += o.retries
	c.abandon += o.abandon
	c.bids += o.bids
	c.late += o.late
}

// probeStats is what probes record on traced rounds.
type probeStats struct {
	hbUS, nonHBUS []float64 // visit times
	foldNS        int64     // time inside the wrapped metric's Add
	folds         int
	c             counts
}

func (s *probeStats) merge(o *probeStats) {
	s.hbUS = append(s.hbUS, o.hbUS...)
	s.nonHBUS = append(s.nonHBUS, o.nonHBUS...)
	s.foldNS += o.foldNS
	s.folds += o.folds
	s.c.merge(o.c)
}

// probe is a Metric wrapping another one (or none). On traced rounds it
// times each worker's visits as the gap between consecutive Add calls
// on its shard, times the wrapped fold, hands the fold end to the emit
// path and tallies counts. On untraced rounds it only forwards Add.
type probe struct {
	inner headerbid.Metric
	tr    *tracer

	last      time.Time
	lastEpoch uint64
	st        probeStats
}

func (t *tracer) newProbe(inner headerbid.Metric) *probe { return &probe{inner: inner, tr: t} }

func (p *probe) Name() string { return "bench_probe" }

func (p *probe) Add(r *headerbid.SiteRecord) {
	if !p.tr.on.Load() {
		if p.inner != nil {
			p.inner.Add(r)
		}
		return
	}
	start := wallNow()
	// A gap reaching back into an earlier round spans round boundaries
	// and their own work, not one visit.
	if ep := p.tr.epoch.Load(); ep == p.lastEpoch && !p.last.IsZero() {
		if r.HB {
			p.st.hbUS = append(p.st.hbUS, us(start.Sub(p.last)))
		} else {
			p.st.nonHBUS = append(p.st.nonHBUS, us(start.Sub(p.last)))
		}
	} else {
		p.lastEpoch = ep
	}
	p.st.c.add(r)
	end := start
	if p.inner != nil {
		before := wallNow()
		p.inner.Add(r)
		end = wallNow()
		p.st.foldNS += int64(end.Sub(before))
		p.st.folds++
	}
	p.tr.foldDone(r, end)
	p.last = end
}

func (p *probe) NewShard() headerbid.Metric {
	s := &probe{tr: p.tr}
	if p.inner != nil {
		s.inner = p.inner.NewShard()
	}
	return s
}

func (p *probe) Merge(other headerbid.Metric) {
	o, ok := other.(*probe)
	if !ok {
		panic(fmt.Sprintf("bench: cannot merge %T into %T", other, p))
	}
	if p.inner != nil {
		p.inner.Merge(o.inner)
	}
	p.st.merge(&o.st)
}

// Snapshot returns a copy of the recorded probe data.
func (p *probe) Snapshot() any {
	var s probeStats
	s.merge(&p.st)
	return s
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
