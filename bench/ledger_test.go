package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestParseValue(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"10ms", 10e6},
		{"1.50s", 1.5e9},
		{"250µs", 250e3},
		{"750us", 750e3},
		{"42ns", 42},
		{"512kB", 512 << 10},
		{"1.50MB", 1.5 * (1 << 20)},
		{"2GB", 2 << 30},
		{"48B", 48},
		{"622601", 622601},
		{"-1MB", -(1 << 20)},
	} {
		got, err := parseValue(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseValue(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := parseValue("12parsecs"); err == nil {
		t.Error("parseValue accepted an unknown unit")
	}
}

func parseFixture(t *testing.T, name string) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkLayers(t *testing.T, got, want map[string]float64) {
	t.Helper()
	for _, layer := range append(slices.Clone(layers), "unknown") {
		if got[layer] != want[layer] {
			t.Errorf("%s = %v, want %v", layer, got[layer], want[layer])
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

// TestParseTracesCPU covers time suffixes, inline frames, frames with a
// colon, GC stacks (background and assist) and the fallbacks.
func TestParseTracesCPU(t *testing.T) {
	checkLayers(t, parseFixture(t, "cpu.traces"), map[string]float64{
		"pipeline":  10e6,
		"gc":        1.5e9 + 20e6,
		"protocols": 250e3 + 750e3,
		"world":     300e6,
		"bench":     100e6,
		"facade":    40e6,
		"runtime":   30e6 + 9e6, // an unmapped internal package, then no repository frame
	})
}

// TestParseTracesAllocs covers both label-line styles, size suffixes
// and a negative value (a -base subtraction).
func TestParseTracesAllocs(t *testing.T) {
	checkLayers(t, parseFixture(t, "allocs.traces"), map[string]float64{
		"runtime":     512 << 10,
		"substrate":   1.5 * (1 << 20),
		"measurement": 96,
		"pipeline":    -(1 << 20),
	})
}

// TestEveryInternalPackageHasALayer fails when a package is added under
// internal/ without a ledger row, so its samples cannot silently land in
// runtime.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if _, ok := layerOf[e.Name()]; !ok && !offPath[e.Name()] {
			t.Errorf("internal/%s has no layer in layerOf (or offPath entry)", e.Name())
		}
	}
	for pkg, layer := range layerOf {
		if !dirs[pkg] {
			t.Errorf("layerOf names internal/%s, which does not exist", pkg)
		}
		if !slices.Contains(layers, layer) {
			t.Errorf("internal/%s maps to unknown layer %q", pkg, layer)
		}
	}
}
