package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"headerbid"
)

// runCrawl runs hbcrawl over args and returns its exit status, stdout
// and stderr.
func runCrawl(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrorExits2: an unknown flag, a malformed flag value, -h and
// a stray positional argument are usage errors, refused before any
// output file is created.
func TestUsageErrorExits2(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "crawl.jsonl")
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-sites", "many"},
		{"-h"},
		{"-sites", "10", "stray"},
		{"-sites", "10", "-o", out, "crawl.jsonl"},
	} {
		code, stdout, stderr := runCrawl(context.Background(), args...)
		if code != 2 {
			t.Errorf("hbcrawl %v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("hbcrawl %v wrote %q to stdout", args, stdout)
		}
	}
	if code, _, stderr := runCrawl(context.Background(), "-sites", "10", "stray"); !strings.Contains(stderr, `unexpected argument "stray"`) {
		t.Errorf("exit %d, stderr %q: the stray argument is not named", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run created %s (%v)", out, err)
	}
}

// TestRefusals: an unknown network profile or a malformed shard exits 1
// naming it, before the dataset file is created.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown profile", []string{"-profile", "dialup"}, `unknown network profile "dialup"`},
		{"malformed shard", []string{"-shard", "3/2"}, "3/2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "crawl.jsonl")
			code, stdout, stderr := runCrawl(context.Background(), append([]string{"-sites", "10", "-q", "-o", out}, c.args...)...)
			if code != 1 || !strings.Contains(stderr, c.want) {
				t.Fatalf("exit %d, stderr %q; want 1 naming %s", code, stderr, c.want)
			}
			if stdout != "" {
				t.Fatalf("a refused run wrote %q to stdout", stdout)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("a refused run created %s (%v)", out, err)
			}
		})
	}
}

// TestCrawlWritesTheFacadesBytes: a small two-worker, two-day crawl
// writes the JSONL dataset and renders the figure report that the
// facade's Experiment gives for the same world and crawl, byte for
// byte, with the dataset in a file or on stdout.
func TestCrawlWritesTheFacadesBytes(t *testing.T) {
	var wantJSONL, wantReport bytes.Buffer
	fr := headerbid.NewFigureReport()
	if _, err := headerbid.NewExperiment(
		headerbid.WithSites(300),
		headerbid.WithSeed(5),
		headerbid.WithDays(2),
		headerbid.WithWorkers(2),
		headerbid.WithSink(headerbid.NewJSONLSink(&wantJSONL)),
		headerbid.WithMetrics(fr),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fr.Render(&wantReport)
	if wantJSONL.Len() == 0 || wantReport.Len() == 0 {
		t.Fatal("the facade's crawl wrote nothing")
	}
	args := []string{"-sites", "300", "-seed", "5", "-days", "2", "-workers", "2", "-q", "-report"}

	out := filepath.Join(t.TempDir(), "crawl.jsonl")
	code, stdout, stderr := runCrawl(context.Background(), append(args, "-o", out)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL.Bytes()) {
		t.Errorf("-o writes %d bytes of JSONL, not the facade's %d", len(got), wantJSONL.Len())
	}
	if stdout != wantReport.String() {
		t.Errorf("-report renders\n%s\nnot the facade's\n%s", stdout, wantReport.String())
	}
	if !strings.Contains(stderr, "dataset written to "+out) {
		t.Errorf("stderr %q does not say where the dataset went", stderr)
	}

	// With -o -, the dataset owns stdout and the report goes to stderr.
	code, stdout, stderr = runCrawl(context.Background(), append(args, "-o", "-")...)
	if code != 0 {
		t.Fatalf("-o -: exit %d, stderr %q", code, stderr)
	}
	if stdout != wantJSONL.String() {
		t.Errorf("-o - writes %d bytes of JSONL to stdout, not the facade's %d", len(stdout), wantJSONL.Len())
	}
	if !strings.Contains(stderr, wantReport.String()) {
		t.Errorf("-o -: the report is not on stderr")
	}
}

// TestCancelledCrawlExits130: a crawl whose context is done exits 130
// and says how much of the dataset it flushed.
func TestCancelledCrawlExits130(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := filepath.Join(t.TempDir(), "crawl.jsonl")
	code, _, stderr := runCrawl(ctx, "-sites", "300", "-q", "-o", out)
	if code != 130 || !strings.Contains(stderr, "interrupted after 0 visits; partial dataset flushed") {
		t.Fatalf("exit %d, stderr %q; want 130 saying the crawl was interrupted", code, stderr)
	}
}
