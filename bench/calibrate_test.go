package main

import (
	"testing"
	"time"
)

func TestHostSpeedWithin(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	read := func(startMS int, cpu time.Duration) reading {
		return reading{span{at(startMS), at(startMS).Add(cpu)}, cpu}
	}
	h := &hostSpeed{readings: []reading{
		read(0, sliceRef),
		read(50, 2*sliceRef),
		read(100, 2*sliceRef),
		read(150, sliceRef),
	}}

	slow, wall, cpu := h.within(span{at(40), at(120)})
	if slow != 2 || wall != 4*sliceRef || cpu != 4*sliceRef {
		t.Errorf("window over two slow readings: slowdown %v, wall %v, cpu %v", slow, wall, cpu)
	}
	slow, wall, cpu = h.within(span{at(0), at(200)})
	if slow != 1.5 || wall != 6*sliceRef || cpu != 6*sliceRef {
		t.Errorf("window over every reading: slowdown %v, wall %v, cpu %v", slow, wall, cpu)
	}
	// No reading starts inside these: the nearest one to the middle
	// counts, and no reading time is taken out.
	for _, c := range []struct {
		from, to int
		want     float64
	}{{10, 20, 1}, {55, 65, 2}, {60, 85, 2}, {155, 170, 1}, {-30, -10, 1}} {
		slow, wall, cpu := h.within(span{at(c.from), at(c.to)})
		if slow != c.want || wall != 0 || cpu != 0 {
			t.Errorf("window %d..%d ms: slowdown %v, wall %v, cpu %v; want %v, 0, 0", c.from, c.to, slow, wall, cpu, c.want)
		}
	}

	var none *hostSpeed
	if slow, wall, cpu := none.within(span{at(0), at(100)}); slow != 1 || wall != 0 || cpu != 0 {
		t.Errorf("nil hostSpeed: slowdown %v, wall %v, cpu %v", slow, wall, cpu)
	}
	if got := none.mean(); got != 1 {
		t.Errorf("nil hostSpeed mean %v, want 1", got)
	}
	if got := h.mean(); got != 1.5 {
		t.Errorf("mean %v, want 1.5", got)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestCalibrationAllocatesNothing guards the reason a reading does not
// depend on the program's heap.
func TestCalibrationAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := newCalibrator()
	if _, err := c.slice(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.slice(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a calibration slice allocates %v times", allocs)
	}
}
