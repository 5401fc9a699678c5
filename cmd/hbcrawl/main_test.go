package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"headerbid"
	"headerbid/internal/obs"
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

// TestShardOutStreamEqualsFile: -shard-out - writes the shard file to
// the run's stdout, byte for byte as -shard-out file writes it to the
// file. One worker: with more, the state's bytes depend on the order in
// which the workers' metric shards fold.
func TestShardOutStreamEqualsFile(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sites", "300", "-seed", "5", "-shard", "1/2", "-workers", "1", "-q", "-o", filepath.Join(dir, "crawl.jsonl")}
	path := filepath.Join(dir, "shard.hbs")
	if code, _, stderr := runCrawl(context.Background(), append(args, "-shard-out", path)...); code != 0 {
		t.Fatalf("-shard-out %s: exit %d, stderr %q", path, code, stderr)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCrawl(context.Background(), append(args, "-shard-out", "-")...)
	if code != 0 {
		t.Fatalf("-shard-out -: exit %d, stderr %q", code, stderr)
	}
	if len(want) == 0 || stdout != string(want) {
		t.Fatalf("-shard-out - streams %d bytes, -shard-out file writes %d", len(stdout), len(want))
	}
}

// TestTraceSmoke is the observability smoke (DESIGN.md §2.5) through
// hbcrawl's flags and files: a traced crawl of the 200-site seed-7
// world writes the same JSONL and the same trace bytes with one worker
// and with four (four explicit workers, not the NumCPU default, which is
// one on a one-CPU box and would prove nothing), its JSONL equals an
// untraced crawl's, and the trace passes the span-nesting validator.
// The world's one pubfood page must be among the traced visits, so the
// smoke covers both client wrappers' rounds. make trace-smoke runs it.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	crawl := func(name string, extra ...string) (jsonl, trace []byte) {
		t.Helper()
		out := filepath.Join(dir, name+".jsonl")
		args := append([]string{"-sites", "200", "-seed", "7", "-q", "-o", out}, extra...)
		tracePath := filepath.Join(dir, name+".json")
		if len(extra) > 0 {
			args = append(args, "-trace", tracePath)
		}
		if code, _, stderr := runCrawl(context.Background(), args...); code != 0 {
			t.Fatalf("hbcrawl %v: exit %d, stderr %q", args, code, stderr)
		}
		jsonl, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(extra) > 0 {
			if trace, err = os.ReadFile(tracePath); err != nil {
				t.Fatal(err)
			}
		}
		return jsonl, trace
	}
	one, oneTrace := crawl("one", "-workers", "1")
	many, manyTrace := crawl("many", "-workers", "4")
	plain, _ := crawl("plain")

	if !bytes.Equal(one, many) {
		t.Errorf("crawl JSONL differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(one), len(many))
	}
	if !bytes.Equal(oneTrace, manyTrace) {
		t.Errorf("trace files differ between workers=1 (%d bytes) and workers=4 (%d bytes)", len(oneTrace), len(manyTrace))
	}
	if !bytes.Equal(plain, one) {
		t.Errorf("tracing perturbed the crawl's JSONL: %d bytes untraced, %d traced", len(plain), len(one))
	}
	if err := obs.ValidateTrace(bytes.NewReader(oneTrace)); err != nil {
		t.Errorf("trace of the one-worker crawl: %v", err)
	}

	pubfood := 0
	for _, line := range strings.Split(strings.TrimSpace(string(one)), "\n") {
		var rec struct {
			Domain    string   `json:"domain"`
			Libraries []string `json:"libraries"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(rec.Libraries, "pubfood.js") {
			continue
		}
		pubfood++
		if !bytes.Contains(oneTrace, []byte(`"`+rec.Domain+` (day 0)"`)) {
			t.Errorf("pubfood page %s is not among the traced visits", rec.Domain)
		}
	}
	if pubfood == 0 {
		t.Error("no pubfood page among the crawled visits")
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
