// Package clock provides a deterministic discrete-event scheduler, the
// heart of the simulated-network environment: it models a
// single-threaded JavaScript-style event loop in virtual time, so a
// crawl of tens of thousands of pages finishes in milliseconds of wall
// time while preserving the ordering and timing semantics of the real
// protocol.
package clock

import (
	"fmt"
	"math"
	"time"
)

// Epoch is the virtual time origin used by simulations. The particular
// date is arbitrary but fixed so runs are reproducible; it corresponds to
// the paper's crawl period (February 2019).
var Epoch = time.Date(2019, time.February, 1, 0, 0, 0, 0, time.UTC)

// event is a scheduled callback. Exactly one of fn and afn is set; afn
// events carry their receiver in arg, so schedulers of struct-based state
// machines (the simulated network's fetch pipeline) need no closure.
//
// Events are stored by value in the queue slice and ordered by
// (key, seq): key is the virtual UnixNano timestamp — virtual time never
// leaves the twenty-first century, so the int64 range is ample — and seq
// is the FIFO tie-breaker among events at the same instant.
type event struct {
	key int64
	seq uint64
	fn  func()
	afn func(any)
	arg any
}

// Scheduler is a deterministic discrete-event executor with a virtual
// clock. It is strictly single-threaded: callbacks scheduled with At or
// After run, in timestamp order, from within Run. This mirrors the
// single-threaded JS event loop that the paper identifies as a source of
// HB latency (Section 7.2): even "parallel" asynchronous work serializes
// through one executor.
//
// The queue is a binary min-heap of event values on one backing slice:
// scheduling an event is an append plus a sift-up, with no per-event
// allocation (the previous container/heap implementation boxed every
// event twice — once for the *event node, once for the interface — and
// that pair showed up in every crawl allocation profile).
//
// The zero value is ready to use and starts at Epoch.
type Scheduler struct {
	now     time.Time
	nowKey  int64
	seq     uint64
	queue   []event
	running bool
}

// NewScheduler returns a scheduler whose clock starts at start. If start
// is the zero time, Epoch is used.
func NewScheduler(start time.Time) *Scheduler {
	if start.IsZero() {
		start = Epoch
	}
	return &Scheduler{
		now:    start,
		nowKey: start.UnixNano(),
		// One page visit keeps a few dozen events in flight; starting at
		// a realistic capacity avoids the early growth reallocations that
		// showed in crawl profiles.
		queue: make([]event, 0, 32),
	}
}

// Reset returns the scheduler to a pristine state starting at start
// (Epoch if zero), retaining the queue's backing storage. The crawler
// pools one scheduler per worker across visits: a fresh virtual timeline
// per visit without re-growing the event heap each time. Pending events
// are dropped (their references cleared for the GC).
func (s *Scheduler) Reset(start time.Time) {
	if s.running {
		//hbvet:allow recoverscope API-misuse precondition: resetting a running scheduler is a harness bug, not visit data
		panic("clock: Reset called during Run")
	}
	if start.IsZero() {
		start = Epoch
	}
	for i := range s.queue {
		s.queue[i] = event{}
	}
	s.queue = s.queue[:0]
	s.now = start
	s.nowKey = start.UnixNano()
	s.seq = 0
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time {
	if s.now.IsZero() {
		s.now = Epoch
		s.nowKey = Epoch.UnixNano()
	}
	return s.now
}

// The queue is a 4-ary min-heap: for the few dozen pending events of a
// page visit, the shallower tree roughly halves the sift-down depth of
// the binary layout, and pop was the scheduler's hottest frame.

// push appends an event and restores the heap order (sift-up).
func (s *Scheduler) push(ev event) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].less(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	s.queue = q
}

// pop removes and returns the minimum event. Call only when the queue is
// non-empty.
func (s *Scheduler) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release fn/arg references
	q = q[:n]
	i := 0
	for {
		min := i
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q[c].less(&q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	s.queue = q
	return top
}

func (e *event) less(o *event) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// schedule clamps t to the present and enqueues the event.
func (s *Scheduler) schedule(t time.Time, fn func(), afn func(any), arg any) {
	s.Now() // materialize Epoch on the zero value
	key := t.UnixNano()
	if key < s.nowKey {
		key = s.nowKey
	}
	s.seq++
	s.push(event{key: key, seq: s.seq, fn: fn, afn: afn, arg: arg})
}

// At schedules fn to run at the given virtual time. Times in the past are
// clamped to the present (the callback runs on the next Run step).
func (s *Scheduler) At(t time.Time, fn func()) {
	if fn == nil {
		//hbvet:allow recoverscope API-misuse precondition: a nil callback is a caller bug, not visit data
		panic("clock: At called with nil callback")
	}
	s.schedule(t, fn, nil, nil)
}

// AtCall schedules fn(arg) to run at the given virtual time (same
// clamping as At). It exists so state machines that already own a state
// struct can schedule steps without allocating a closure per step: the
// caller passes a package-level func plus its receiver.
func (s *Scheduler) AtCall(t time.Time, fn func(any), arg any) {
	if fn == nil {
		//hbvet:allow recoverscope API-misuse precondition: a nil callback is a caller bug, not visit data
		panic("clock: AtCall called with nil callback")
	}
	s.schedule(t, nil, fn, arg)
}

// After schedules fn to run d from the current virtual time. Negative
// durations are treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.Now().Add(d), fn)
}

// AfterCall schedules fn(arg) to run d from the current virtual time
// (the closure-free counterpart of After; see AtCall).
func (s *Scheduler) AfterCall(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtCall(s.Now().Add(d), fn, arg)
}

// Post schedules fn to run as soon as possible, after events already due.
func (s *Scheduler) Post(fn func()) { s.After(0, fn) }

// Pending reports the number of events waiting to run.
func (s *Scheduler) Pending() int { return len(s.queue) }

// advanceTo moves the clock forward to the event's timestamp.
func (s *Scheduler) advanceTo(key int64) {
	if key > s.nowKey {
		s.now = s.now.Add(time.Duration(key - s.nowKey))
		s.nowKey = key
	}
}

// run executes the event's callback.
func (ev *event) run() {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.afn(ev.arg)
}

// Run executes queued events in order until the queue drains. It
// returns the number of events executed during this call.
//
//hbvet:allow deadexport test seam: the tests of browser, prebid, pubfood, gptlib, usersync, simnet and sitegen drain their fake envs with it; the crawl bounds every visit with RunUntil
func (s *Scheduler) Run() int { return s.drain(math.MaxInt64) }

// RunUntil executes queued events whose time is <= deadline; the clock is
// advanced to deadline afterwards even if no event lands exactly there.
// It returns the number of events executed.
func (s *Scheduler) RunUntil(deadline time.Time) int {
	deadlineKey := deadline.UnixNano()
	executed := s.drain(deadlineKey)
	if deadlineKey > s.nowKey {
		s.now = deadline
		s.nowKey = deadlineKey
	}
	return executed
}

// drain executes queued events, in order, whose key is <= deadlineKey.
func (s *Scheduler) drain(deadlineKey int64) int {
	if s.running {
		//hbvet:allow recoverscope API-misuse precondition: a reentrant Run or RunUntil is a harness bug, not visit data
		panic("clock: Run or RunUntil called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	executed := 0
	for len(s.queue) > 0 && s.queue[0].key <= deadlineKey {
		ev := s.pop()
		s.advanceTo(ev.key)
		executed++
		ev.run()
	}
	return executed
}

// String describes the scheduler state, useful in test failures.
func (s *Scheduler) String() string {
	//hbvet:allow hotalloc debug String() runs only in test-failure output, never per visit
	return fmt.Sprintf("Scheduler{now=%s pending=%d}",
		s.Now().Format(time.RFC3339Nano), len(s.queue))
}
