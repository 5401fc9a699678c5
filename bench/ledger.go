package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the rows of the per-layer ledger: the DESIGN.md §1 layers,
// plus gc (background and assist GC work), runtime (stacks with no
// repository frame) and bench (this program's own frames).
var layers = []string{
	"world", "substrate", "protocols", "measurement", "pipeline",
	"scenario", "facade", "obs", "gc", "runtime", "bench",
}

// layerOf maps each package under internal/ to its layer.
var layerOf = map[string]string{
	"sitegen": "world", "partners": "world", "wayback": "world",
	"staticdet": "world", "htmlmeta": "world",

	"simnet": "substrate", "livenet": "substrate", "clock": "substrate",
	"events": "substrate", "webreq": "substrate", "urlkit": "substrate",
	"stats": "substrate", "rng": "substrate",

	"prebid": "protocols", "pubfood": "protocols", "gptlib": "protocols",
	"rtb": "protocols", "adserver": "protocols", "waterfall": "protocols",
	"usersync": "protocols", "hb": "protocols",

	"core": "measurement", "browser": "measurement", "pagert": "measurement",

	"crawler": "pipeline", "dataset": "pipeline", "analysis": "pipeline",
	"report": "pipeline", "snapshot": "pipeline", "wire": "pipeline",

	"scenario": "scenario", "overlay": "scenario",

	"obs": "obs",
}

// offPath lists internal packages that no benchmark binary links, so
// they never appear on a profiled stack (lint is the hbvet analyzer
// suite).
var offPath = map[string]bool{"lint": true}

// gcRoots mark stacks of garbage-collector work; such a stack is
// charged to gc even when it passes through repository frames (an
// allocation that assists the GC).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
}

const internalPrefix = "headerbid/internal/"

// classify charges a stack (innermost frame first) to a layer: gc if
// it passes through a GC root, else the layer of its innermost
// repository frame, else runtime.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main."):
			return "bench"
		case strings.HasPrefix(fn, "headerbid."):
			return "facade"
		case strings.HasPrefix(fn, internalPrefix):
			pkg := fn[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			return "runtime"
		}
	}
	return "runtime"
}

// parseTraces reads `go tool pprof -traces` output and sums each
// sample's value, in base units (ns, bytes or a count), into the layer
// its stack is charged to.
func parseTraces(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	var (
		stack     []string
		value     float64
		inSamples bool
		have      bool
	)
	flush := func() {
		if have {
			out[classify(stack)] += value
		}
		stack, have = stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inSamples = true
		case !inSamples || line == "":
			// Header lines (File, Type, Duration, ...).
		case have:
			stack = append(stack, frameName(line))
		case line[0] == '-' || line[0] >= '0' && line[0] <= '9':
			// The value line: "<value>   <innermost frame>".
			f := strings.Fields(line)
			v, err := parseValue(f[0])
			if err != nil {
				return nil, err
			}
			value, have = v, true
			if len(f) > 1 {
				stack = append(stack, frameName(strings.TrimSpace(line[len(f[0]):])))
			}
		default:
			// A label line ahead of the value, e.g. "bytes:  256kB" or
			// "bytes:[256kB]".
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading pprof traces: %w", err)
	}
	flush()
	return out, nil
}

func frameName(s string) string { return strings.TrimSuffix(s, " (inline)") }

// unitScale converts pprof's printed suffixes to base units; longer
// suffixes come first so "ms" is not read as "s".
var unitScale = []struct {
	suffix string
	scale  float64
}{
	{"µs", 1e3}, {"us", 1e3}, {"ns", 1}, {"ms", 1e6}, {"s", 1e9},
	{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
}

// parseValue parses one pprof sample value such as "10ms", "1.50s",
// "256kB" or "622601".
func parseValue(s string) (float64, error) {
	scale := 1.0
	num := s
	for _, u := range unitScale {
		if strings.HasSuffix(s, u.suffix) {
			num, scale = strings.TrimSuffix(s, u.suffix), u.scale
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return v * scale, nil
}

// pprofLayers runs `go tool pprof -traces` with args and returns the
// per-layer sums.
func pprofLayers(ctx context.Context, args ...string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(bytes.NewReader(out))
}

// ledger is the per-layer split of the traced CPU time (ns) and of the
// allocations (objects) of a -trace run.
type ledger struct {
	cpuNS, allocs map[string]float64
}

func (t *tracer) ledger(ctx context.Context) (ledger, error) {
	var l ledger
	if len(t.cpuFiles) == 0 || len(t.heapEnd) == 0 {
		return l, fmt.Errorf("no traced rounds to build a ledger from")
	}
	var err error
	if l.cpuNS, err = pprofLayers(ctx, append([]string{"-sample_index=cpu"}, t.cpuFiles...)...); err != nil {
		return l, err
	}
	// Allocation profiles are cumulative and pprof's -base takes a single
	// profile, so sum the segment ends and the segment bases separately
	// (pprof merges several sources by adding them) and subtract per
	// layer: a stack's layer does not depend on the profile it is in.
	if l.allocs, err = pprofLayers(ctx, append([]string{"-sample_index=alloc_objects"}, t.heapEnd...)...); err != nil {
		return l, err
	}
	base, err := pprofLayers(ctx, append([]string{"-sample_index=alloc_objects"}, t.heapBase...)...)
	for layer, v := range base {
		l.allocs[layer] -= v
	}
	return l, err
}
