package main

import (
	"bytes"
	"os"
	"os/signal"
	"strings"
	"testing"
	"time"
)

// runSweep runs hbsweep over args and returns its exit status, stdout
// and stderr.
func runSweep(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// noAxes disables the three axes that are on by default.
var noAxes = []string{"-timeouts", "", "-partners", "", "-profiles", ""}

// TestRefusals: every refused input exits 1 before a comparison is
// rendered, and the message names what was refused.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown fault partner", append([]string{"-sites", "100", "-faults", "0.2", "-fault-partner", "nosuchpartner", "-q"}, noAxes...), `"nosuchpartner"`},
		{"fault rate above 1", append([]string{"-sites", "100", "-faults", "1.5", "-q"}, noAxes...), `bad rate "1.5"`},
		{"fault rate not a number", append([]string{"-sites", "100", "-faults", "0.1,often", "-q"}, noAxes...), `bad rate "often"`},
		{"unknown network profile", []string{"-sites", "100", "-timeouts", "", "-partners", "", "-profiles", "fiber,dialup", "-q"}, `unknown network profile "dialup"`},
		{"bad timeout level", []string{"-sites", "100", "-timeouts", "500,-3", "-partners", "", "-profiles", "", "-q"}, `bad level "-3"`},
		{"every axis disabled", append([]string{"-sites", "100", "-q"}, noAxes...), "every axis disabled"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runSweep(c.args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr %q does not name %s", stderr, c.want)
			}
			if stdout != "" {
				t.Fatalf("a refused sweep rendered %q", stdout)
			}
		})
	}
}

// TestUsageError: a flag the command does not define is a usage error.
func TestUsageError(t *testing.T) {
	if code, _, stderr := runSweep("-no-such-flag"); code != 2 || !strings.Contains(stderr, "no-such-flag") {
		t.Fatalf("exit %d, stderr %q; want 2 naming the flag", code, stderr)
	}
}

// TestSweepRendersComparison: a one-axis sweep over a small world exits
// 0 and renders the comparison of its variants on stdout.
func TestSweepRendersComparison(t *testing.T) {
	code, stdout, stderr := runSweep("-sites", "80", "-timeouts", "500", "-partners", "", "-profiles", "", "-workers", "1", "-q")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "timeout=500ms") || !strings.Contains(stderr, "swept 2 variants over one 80-site world") {
		t.Fatalf("stdout %q\nstderr %q", stdout, stderr)
	}
}

// TestInterruptedSweepExits130: SIGINT during a long sweep stops it,
// renders no comparison and exits 130.
func TestInterruptedSweepExits130(t *testing.T) {
	code, stdout, stderr := interrupted(t, func() (int, string, string) {
		return runSweep(append([]string{"-sites", "20000", "-faults", "0.2", "-workers", "1", "-q"}, noAxes...)...)
	})
	if code != 130 || !strings.Contains(stderr, "hbsweep: interrupted; no comparison rendered") {
		t.Fatalf("exit %d, stderr %q; want 130 saying the sweep was interrupted", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("an interrupted sweep rendered %q", stdout)
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
