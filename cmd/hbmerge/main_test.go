package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"headerbid"
	"headerbid/internal/snapshot"
)

const testSites, testDays = 300, 2

// writeShard crawls slice index/count of the seed's world and writes
// its shard file, as `hbcrawl -shard index/count -shard-out` does.
func writeShard(t *testing.T, dir string, seed int64, index, count int) string {
	t.Helper()
	fr, deg := headerbid.NewFigureReport(), headerbid.NewDegradation()
	exp := headerbid.NewExperiment(
		headerbid.WithSeed(seed),
		headerbid.WithSites(testSites),
		headerbid.WithDays(testDays),
		headerbid.WithShard(index, count),
		headerbid.WithMetrics(fr, deg),
	)
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seed%d-s%d.hbs", seed, index))
	h := headerbid.ShardHeader{Seed: seed, ShardCount: count, Shards: []int{index}}
	if err := headerbid.WriteShardFile(path, h, []headerbid.MetricCodec{fr, deg}); err != nil {
		t.Fatal(err)
	}
	return path
}

// runMerge runs hbmerge over args and returns its exit status, stdout
// and stderr.
func runMerge(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFoldRendersSingleProcessReport: folding the two shard files of a
// 2-way split renders exactly the report of one crawl of the whole
// world, and -summary prints its Table 1.
func TestFoldRendersSingleProcessReport(t *testing.T) {
	dir := t.TempDir()
	s0, s1 := writeShard(t, dir, 7, 0, 2), writeShard(t, dir, 7, 1, 2)

	single := headerbid.NewFigureReport()
	exp := headerbid.NewExperiment(
		headerbid.WithSeed(7),
		headerbid.WithSites(testSites),
		headerbid.WithDays(testDays),
		headerbid.WithMetrics(single),
	)
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	single.Render(&want)

	code, stdout, stderr := runMerge(s1, s0)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("folded report (%d bytes) differs from the single-process report (%d bytes)", len(stdout), want.Len())
	}

	code, stdout, stderr = runMerge("-summary", s0, s1)
	if code != 0 {
		t.Fatalf("-summary: exit %d: %s", code, stderr)
	}
	wantLine := fmt.Sprintf("sites crawled    %d\n", single.Summary().SitesCrawled)
	if !strings.HasPrefix(stdout, wantLine) {
		t.Errorf("-summary printed %q, want it to start with %q", stdout, wantLine)
	}
}

// TestRefusals: every refused input exits non-zero, prints no report,
// and says why on stderr.
func TestRefusals(t *testing.T) {
	dir := t.TempDir()
	s0, s1 := writeShard(t, dir, 7, 0, 2), writeShard(t, dir, 7, 1, 2)
	other := writeShard(t, dir, 8, 1, 2)

	// A file this build would have read before the format bump: the
	// version uvarint follows the 8-byte magic.
	b, err := os.ReadFile(s1)
	if err != nil {
		t.Fatal(err)
	}
	b[8] = 1
	old := filepath.Join(dir, "format1.hbs")
	if err := os.WriteFile(old, b, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"summary to the shard stream", []string{"-summary", "-merge-out", "-", s0, s1}, 2, []string{"-summary", "-merge-out -"}},
		{"no files", nil, 2, []string{"no shard files"}},
		{"old format version", []string{old, s0}, 1, []string{"format version 1", fmt.Sprintf("reads %d", snapshot.FormatVersion)}},
		{"seed mismatch", []string{s0, other}, 1, []string{other, "seed mismatch", "7", "8"}},
		{"missing shard", []string{s0}, 1, []string{"incomplete fold", "1/2", "missing [1]", "-partial"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runMerge(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if stdout != "" {
				t.Errorf("wrote %d bytes to stdout", len(stdout))
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not name %q", stderr, w)
				}
			}
		})
	}
}
