package clock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerZeroValueStartsAtEpoch(t *testing.T) {
	var s Scheduler
	if !s.Now().Equal(Epoch) {
		t.Fatalf("zero scheduler Now() = %v, want Epoch", s.Now())
	}
}

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(time.Time{})
	var order []int
	s.After(300*time.Millisecond, func() { order = append(order, 3) })
	s.After(100*time.Millisecond, func() { order = append(order, 1) })
	s.After(200*time.Millisecond, func() { order = append(order, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
	if got := s.Now().Sub(Epoch); got != 300*time.Millisecond {
		t.Fatalf("clock advanced %v, want 300ms", got)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(time.Time{})
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(50*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(time.Time{})
	var hits []string
	s.After(10*time.Millisecond, func() {
		hits = append(hits, "a")
		s.After(5*time.Millisecond, func() { hits = append(hits, "c") })
	})
	s.After(12*time.Millisecond, func() { hits = append(hits, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(hits) || hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestSchedulerPastEventsClamped(t *testing.T) {
	s := NewScheduler(time.Time{})
	s.After(10*time.Millisecond, func() {
		// Scheduling in the past must not rewind the clock.
		s.At(s.Now().Add(-time.Hour), func() {})
	})
	s.Run()
	if s.Now().Before(Epoch) {
		t.Fatal("clock went backwards")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler(time.Time{})
	ran := 0
	s.After(100*time.Millisecond, func() { ran++ })
	s.After(900*time.Millisecond, func() { ran++ })
	n := s.RunUntil(Epoch.Add(500 * time.Millisecond))
	if n != 1 || ran != 1 {
		t.Fatalf("RunUntil ran %d events (cb %d), want 1", n, ran)
	}
	if !s.Now().Equal(Epoch.Add(500 * time.Millisecond)) {
		t.Fatalf("clock = %v, want deadline", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// The remaining event still runs later.
	s.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

// TestRunForAdvancesRelative: running for a duration (RunUntil now+d,
// as the crawl bounds a visit) advances the clock relative to now.
func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler(time.Time{})
	s.RunUntil(s.Now().Add(2 * time.Second))
	s.RunUntil(s.Now().Add(3 * time.Second))
	if got := s.Now().Sub(Epoch); got != 5*time.Second {
		t.Fatalf("clock advanced %v, want 5s", got)
	}
}

// TestSchedulerStepLimit: a runaway feedback loop is bounded by the
// deadline the crawl runs each visit to.
func TestSchedulerStepLimit(t *testing.T) {
	s := NewScheduler(time.Time{})
	var feed func()
	feed = func() { s.After(time.Millisecond, feed) }
	s.After(time.Millisecond, feed)
	if steps := s.RunUntil(Epoch.Add(5 * time.Millisecond)); steps != 5 {
		t.Fatalf("steps = %d, want 5 (runaway loop not bounded)", steps)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want the loop's next step", s.Pending())
	}
}

func TestSchedulerReentrantRunPanics(t *testing.T) {
	s := NewScheduler(time.Time{})
	s.After(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		s.Run()
	})
	s.Run()
}

func TestSchedulerNilCallbackPanics(t *testing.T) {
	s := NewScheduler(time.Time{})
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	s.After(time.Second, nil)
}

func TestNegativeAfterRunsImmediately(t *testing.T) {
	s := NewScheduler(time.Time{})
	ran := false
	s.After(-time.Hour, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
	if !s.Now().Equal(Epoch) {
		t.Fatalf("negative delay moved the clock: %v", s.Now())
	}
}

// Property: for any batch of non-negative delays, Run executes them in
// nondecreasing time order and the final clock equals Epoch+max(delay).
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		s := NewScheduler(time.Time{})
		var seen []time.Duration
		var maxDelay time.Duration
		for _, d := range delaysMS {
			delay := time.Duration(d) * time.Millisecond
			if delay > maxDelay {
				maxDelay = delay
			}
			s.After(delay, func() { seen = append(seen, s.Now().Sub(Epoch)) })
		}
		s.Run()
		if len(seen) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return s.Now().Sub(Epoch) == maxDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerStringHasState(t *testing.T) {
	s := NewScheduler(time.Time{})
	s.After(time.Second, func() {})
	if str := s.String(); str == "" {
		t.Fatal("empty String()")
	}
}
