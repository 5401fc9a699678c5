package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wallNow is the benchmark's single wall-clock read; every duration it
// reports is a difference of two of these.
func wallNow() time.Time {
	//hbvet:allow detwall benchmark timing is wall-clock by definition
	return time.Now()
}

// sample is the process state a round boundary records.
type sample struct {
	wall    time.Time
	cpu     time.Duration // user+sys CPU of the whole process
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNS uint64
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{
		wall:    wallNow(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// processCPU is the process's user+sys CPU time from getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round is one measured unit of a workload: a world, a revisit day or a
// read pass.
type round struct {
	items   int
	at      span // when it ran
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNS uint64
	traced  bool
}

// span is a stretch of wall time.
type span struct{ from, to time.Time }

func (s span) d() time.Duration { return s.to.Sub(s.from) }

func between(a, b sample, items int, traced bool) round {
	return round{
		items:   items,
		at:      span{a.wall, b.wall},
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		bytes:   b.bytes - a.bytes,
		gcs:     b.numGC - a.numGC,
		pauseNS: b.pauseNS - a.pauseNS,
		traced:  traced,
	}
}

func (r round) rate() float64 { return float64(r.items) / r.at.d().Seconds() }

// totals sums rounds.
func totals(rs []round) round {
	var t round
	for _, r := range rs {
		t.items += r.items
		t.cpu += r.cpu
		t.mallocs += r.mallocs
		t.bytes += r.bytes
		t.gcs += r.gcs
		t.pauseNS += r.pauseNS
	}
	return t
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" method as Python's statistics.quantiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of xs (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// high-water mark, so the VmHWM read at the end of the measured phase
// covers that phase only.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// procField returns the value of the first "key: value" line of a
// /proc file.
func procField(path, key string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSMB reads VmHWM ("1800 kB") from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpuModel names the host CPU for the run record.
func cpuModel() string {
	v, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		return "unknown"
	}
	return v
}
