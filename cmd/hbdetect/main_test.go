package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"headerbid"
)

// detect runs hbdetect in-process and returns its exit status and
// output streams.
func detect(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestNoMatchingSiteExits1(t *testing.T) {
	code, _, stderr := detect(t, "-sites", "300", "-domain", "nosuch.example")
	if code != 1 || !strings.Contains(stderr, "no matching site") {
		t.Fatalf("exit %d, stderr %q; want 1 naming no matching site", code, stderr)
	}
}

func TestUsageErrorExits2(t *testing.T) {
	for _, args := range [][]string{{"-rank", "x"}, {"-h"}} {
		if code, _, _ := detect(t, args...); code != 2 {
			t.Errorf("hbdetect %v: exit %d, want 2", args, code)
		}
	}
	// A domain given without -domain must not visit the default site.
	code, stdout, stderr := detect(t, "-sites", "300", "site00012.example")
	if code != 2 || !strings.Contains(stderr, `"site00012.example"`) || !strings.Contains(stderr, "-domain") || stdout != "" {
		t.Errorf("hbdetect -sites 300 site00012.example: exit %d, stdout %q, stderr %q; want 2 naming the argument and -domain", code, stdout, stderr)
	}
}

// TestHBVisitPrintsDetection: the default site is the first HB site, and
// its dump carries the truth, the detection and its auctions.
func TestHBVisitPrintsDetection(t *testing.T) {
	code, stdout, stderr := detect(t, "-sites", "300", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, prefix := range []string{"site ", "truth ", "detected ", "auction "} {
		if !strings.Contains("\n"+stdout, "\n"+prefix) {
			t.Errorf("no %q line in\n%s", prefix, stdout)
		}
	}
	if strings.Contains(stdout, "no header bidding detected") {
		t.Errorf("an HB site reported no header bidding:\n%s", stdout)
	}
}

func TestNonHBVisitSaysSo(t *testing.T) {
	cfg := headerbid.DefaultWorldConfig(1)
	cfg.NumSites = 300
	rank := 0
	for _, s := range headerbid.GenerateWorld(cfg).Sites {
		if !s.HB {
			rank = s.Rank
			break
		}
	}
	if rank == 0 {
		t.Fatal("the 300-site world has no site without header bidding")
	}
	code, stdout, stderr := detect(t, "-sites", "300", "-seed", "1", "-rank", strconv.Itoa(rank))
	if code != 0 || !strings.Contains(stdout, "no header bidding detected") {
		t.Fatalf("rank %d: exit %d, stdout\n%s\nstderr %q; want 0 and no header bidding detected", rank, code, stdout, stderr)
	}
}
