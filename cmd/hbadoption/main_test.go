package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// runAdoption runs hbadoption over args and returns its exit status,
// stdout and stderr.
func runAdoption(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageError: a malformed flag value is a usage error, and nothing
// is rendered.
func TestUsageError(t *testing.T) {
	code, stdout, stderr := runAdoption("-top", "x")
	if code != 2 || !strings.Contains(stderr, "-top") {
		t.Fatalf("exit %d, stderr %q; want 2 naming the flag", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("a usage error rendered %q", stdout)
	}
}

// TestDefaultRunRendersFigure4: the default run prints the header and
// one row per year from 2014 to 2019, each rate a percentage.
func TestDefaultRunRendersFigure4(t *testing.T) {
	code, stdout, stderr := runAdoption("-top", "200")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 7 || !strings.HasPrefix(lines[0], "Figure 4: Header Bidding adoption") {
		t.Fatalf("want a header and six year rows, got:\n%s", stdout)
	}
	for i, line := range lines[1:] {
		year := 2014 + i
		if !strings.HasPrefix(line, fmt.Sprintf("%d  sites=", year)) {
			t.Fatalf("row %d = %q, want year %d", i, line, year)
		}
		for _, key := range []string{"rate=", "(ground truth "} {
			rest := strings.TrimSpace(line[strings.Index(line, key)+len(key):])
			rate, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '%')], 64)
			if err != nil || rate < 0 || rate > 100 {
				t.Fatalf("row %q: %s%q is not a rate in [0, 100]", line, key, rest)
			}
		}
	}
}

// TestLiveCrawlLine: -live N adds the rendered-crawl line for an N-site
// world.
func TestLiveCrawlLine(t *testing.T) {
	code, stdout, stderr := runAdoption("-top", "100", "-live", "200")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "\nrendered crawl (200 sites, dynamic detection): rate=") {
		t.Fatalf("no rendered-crawl line in:\n%s", stdout)
	}
}
