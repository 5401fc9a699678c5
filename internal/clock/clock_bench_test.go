package clock

import (
	"testing"
	"time"
)

// benchEvents mirrors a busy visit: interleaved schedule/fire with
// re-scheduling from inside callbacks (fetch -> handler -> delivery).
const benchEvents = 512

// BenchmarkScheduler_ScheduleFire measures the production scheduler:
// schedule benchEvents callbacks at staggered delays, each rescheduling a
// follow-up once, then drain.
func BenchmarkScheduler_ScheduleFire(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(time.Time{})
		fired := 0
		for j := 0; j < benchEvents; j++ {
			d := time.Duration(j%37) * time.Millisecond
			s.After(d, func() {
				s.After(time.Millisecond, func() { fired++ })
			})
		}
		s.Run()
		if fired != benchEvents {
			b.Fatalf("fired %d, want %d", fired, benchEvents)
		}
	}
}

// BenchmarkScheduler_AtCall measures the closure-free scheduling path the
// simulated network's fetch pipeline uses.
func BenchmarkScheduler_AtCall(b *testing.B) {
	b.ReportAllocs()
	type st struct{ fired int }
	fire := func(a any) { a.(*st).fired++ }
	for i := 0; i < b.N; i++ {
		s := NewScheduler(time.Time{})
		state := &st{}
		for j := 0; j < benchEvents; j++ {
			s.AfterCall(time.Duration(j%37)*time.Millisecond, fire, state)
		}
		s.Run()
		if state.fired != benchEvents {
			b.Fatalf("fired %d, want %d", state.fired, benchEvents)
		}
	}
}

// TestAtCallOrdering proves fn and afn events interleave in strict
// (time, seq) order — the property the crawl's determinism rests on.
func TestAtCallOrdering(t *testing.T) {
	s := NewScheduler(time.Time{})
	var got []int
	add := func(a any) { got = append(got, a.(int)) }
	s.AfterCall(2*time.Millisecond, add, 3)
	s.After(time.Millisecond, func() { got = append(got, 1) })
	s.AfterCall(time.Millisecond, add, 2)
	s.After(2*time.Millisecond, func() { got = append(got, 4) })
	s.Post(func() { got = append(got, 0) })
	if n := s.Run(); n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want 0..4", got)
		}
	}
}
