package main

import (
	"bytes"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"testing"
	"time"
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

// TestInterruptedLiveCrawlExits130: SIGINT during a long -live crawl
// stops it, says so, and exits 130, as hbcrawl and hbsweep do, so a
// script can tell an interrupted study from a finished one.
func TestInterruptedLiveCrawlExits130(t *testing.T) {
	code, _, stderr := interrupted(t, func() (int, string, string) {
		return runAdoption("-top", "100", "-live", "20000")
	})
	if code != 130 || !strings.Contains(stderr, "hbadoption: live crawl interrupted after ") {
		t.Fatalf("exit %d, stderr %q; want 130 saying the live crawl was interrupted", code, stderr)
	}
}

// interrupted runs fn and sends this process SIGINT every 50 ms until fn
// returns; fn's own signal.NotifyContext turns the first one it sees
// into a cancellation. The test holds a SIGINT subscription of its own
// and waits for each signal it sends to arrive there before it sends
// another or returns. So no signal is still on its way to the runtime
// when the deferred signal.Stop drops the last subscription: one that
// arrived after it would end the test process.
func interrupted(t *testing.T, fn func() (int, string, string)) (int, string, string) {
	t.Helper()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code           int
		stdout, stderr string
	}
	done := make(chan result, 1)
	go func() {
		code, stdout, stderr := fn()
		done <- result{code, stdout, stderr}
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case r := <-done:
			return r.code, r.stdout, r.stderr
		case <-tick.C:
			if err := self.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			<-sigs
		}
	}
}
