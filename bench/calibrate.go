package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is shared, and its speed switches between two
// states, alone on its core and slowed by a neighbour that stretches
// CPU time itself by about 2x. A state lasts from a second to minutes,
// so a 20 s run may sit wholly in either. hostSpeed measures the state
// while a run lasts, and the end-to-end timings are scaled by it to the
// speed of the reference host alone.
const (
	// sampleEvery is how often hostSpeed takes a reading.
	sampleEvery = 50 * time.Millisecond
	// sliceRecords is the calibration work of one reading.
	sliceRecords = 1000
	// sliceRef is what one reading takes on the reference host alone
	// (one core of a 2.1 GHz Xeon, Go 1.24.0), with the caches cold from
	// the program's work. It and the calibration work are part of the
	// benchmark's definition: changing either shifts every timing.
	sliceRef = 1400 * time.Microsecond
)

// reading is one calibration slice: when it ran, and its thread CPU.
type reading struct {
	span
	cpu time.Duration
}

// hostSpeed takes a calibration reading every sampleEvery until stop.
// With GOMAXPROCS at 1 its goroutine shares the program's thread, so
// each reading measures the core the program is running on. A reading
// counts only its own thread CPU, so the program's work does not move
// it; the wall and CPU time the readings take are later subtracted from
// the windows they fall in.
type hostSpeed struct {
	stopCh chan struct{}
	done   sync.WaitGroup

	// Written by the sampling goroutine, read after stop.
	readings []reading
	err      error
}

func startHostSpeed() *hostSpeed {
	h := &hostSpeed{stopCh: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		c := newCalibrator()
		//hbvet:allow detwall host-speed readings are taken on a wall-clock tick
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
			from := wallNow()
			cpu, err := c.slice()
			if err != nil {
				h.err = err
				return
			}
			h.readings = append(h.readings, reading{span{from, wallNow()}, cpu})
		}
	}()
	return h
}

// stop ends the sampling and returns its error, if any.
func (h *hostSpeed) stop() error {
	close(h.stopCh)
	h.done.Wait()
	return h.err
}

// within returns, for the readings that started in w, the wall and CPU
// time they took and how much slower the host ran than the reference
// host alone: the readings' mean over sliceRef. A window too short to
// hold a reading takes the nearest one. A nil hostSpeed, or one with no
// readings, reports no readings and a slowdown of 1.
func (h *hostSpeed) within(w span) (slowdown float64, wall, cpu time.Duration) {
	if h == nil || len(h.readings) == 0 {
		return 1, 0, 0
	}
	n := 0
	for _, r := range h.readings {
		if r.from.Before(w.from) || !r.from.Before(w.to) {
			continue
		}
		wall += r.d()
		cpu += r.cpu
		n++
	}
	if n == 0 {
		mid := w.from.Add(w.d() / 2)
		i := sort.Search(len(h.readings), func(i int) bool { return !h.readings[i].from.Before(mid) })
		if i == len(h.readings) || i > 0 && mid.Sub(h.readings[i-1].from) < h.readings[i].from.Sub(mid) {
			i--
		}
		return float64(h.readings[i].cpu) / float64(sliceRef), 0, 0
	}
	return float64(cpu) / float64(n) / float64(sliceRef), wall, cpu
}

// mean is the slowdown over every reading of the run.
func (h *hostSpeed) mean() float64 {
	if h == nil || len(h.readings) == 0 {
		return 1
	}
	var sum time.Duration
	for _, r := range h.readings {
		sum += r.cpu
	}
	return float64(sum) / float64(len(h.readings)) / float64(sliceRef)
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("calibration clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

type calibrationBid struct {
	Partner string  `json:"partner"`
	CPM     float64 `json:"cpm"`
	Late    bool    `json:"late"`
}

type calibrationRecord struct {
	Domain string           `json:"domain"`
	Rank   int              `json:"rank"`
	HB     bool             `json:"hb"`
	Tags   []string         `json:"tags"`
	Bids   []calibrationBid `json:"bids"`
}

// calibrator is the calibration work: standard-library code with the
// mix a visit has (JSON encoding, map updates, sorting, SHA-256) over a
// fixed table of records. After its first slice it allocates nothing,
// so the program's heap does not move it. On the reference host the
// workloads slow down with it: fitted over rounds, a workload's rate
// goes as the readings' slowdown to a power between 0.85 and 1.04, and
// the slowdown explains 92-96% of the variance of the log round rate.
type calibrator struct {
	records []calibrationRecord
	buf     bytes.Buffer
	enc     *json.Encoder
	h       hash.Hash
	sizes   map[string]int
	keys    []string
	sum     []byte
}

func newCalibrator() *calibrator {
	c := &calibrator{h: sha256.New(), sizes: make(map[string]int)}
	partners := []string{"appnexus", "rubicon", "criteo", "openx", "pubmatic"}
	for i := 0; i < 256; i++ {
		r := calibrationRecord{
			Domain: "site" + strconv.Itoa(i) + ".example",
			Rank:   i + 1,
			HB:     i%7 == 0,
			Tags:   []string{"prebid", strconv.Itoa(i % 13)},
		}
		for j := 0; j < 1+i%len(partners); j++ {
			r.Bids = append(r.Bids, calibrationBid{partners[(i+j)%len(partners)], float64(i%97) / 10, j%3 == 0})
		}
		c.records = append(c.records, r)
	}
	c.enc = json.NewEncoder(&c.buf)
	return c
}

// slice runs one reading's work on a locked thread and returns that
// thread's CPU time for it.
func (c *calibrator) slice() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, err := threadCPU()
	if err != nil {
		return 0, err
	}
	c.h.Reset()
	for i := 0; i < sliceRecords; i++ {
		r := &c.records[i%len(c.records)]
		c.buf.Reset()
		if err := c.enc.Encode(r); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		c.h.Write(c.buf.Bytes())
		c.sizes[r.Domain] += c.buf.Len()
		c.keys = c.keys[:0]
		for _, b := range r.Bids {
			c.keys = append(c.keys, b.Partner)
		}
		sort.Strings(c.keys)
	}
	c.sum = c.h.Sum(c.sum[:0])
	end, err := threadCPU()
	if err != nil {
		return 0, err
	}
	return end - start, nil
}
