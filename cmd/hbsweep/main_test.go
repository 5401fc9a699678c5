package main

import (
	"bytes"
	"strings"
	"testing"
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
