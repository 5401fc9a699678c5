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
)

const testSites, testDays = 300, 2

// writeDataset crawls slice index/count of seed 7's world and writes
// its JSONL dataset, as `hbcrawl -shard index/count -o` does.
func writeDataset(t *testing.T, dir string, index, count int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", index))
	sink, err := headerbid.NewJSONLFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	exp := headerbid.NewExperiment(
		headerbid.WithSeed(7),
		headerbid.WithSites(testSites),
		headerbid.WithDays(testDays),
		headerbid.WithShard(index, count),
		headerbid.WithSink(sink),
	)
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeFile writes content to name in dir and returns its path.
func writeFile(t *testing.T, dir, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runReport runs hbreport over args with stdin reading stdin, and
// returns its exit status, stdout and stderr.
func runReport(stdin string, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestShardsReportAsTheirConcatenation: the datasets of a 2-way split,
// given as two files, report as the two concatenated into one file or
// piped through stdin, with -summary and without.
func TestShardsReportAsTheirConcatenation(t *testing.T) {
	dir := t.TempDir()
	s0, s1 := writeDataset(t, dir, 0, 2), writeDataset(t, dir, 1, 2)
	b0, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(s1)
	if err != nil {
		t.Fatal(err)
	}
	joined := append(append([]byte{}, b0...), b1...)
	both := writeFile(t, dir, "both.jsonl", joined)

	for _, flags := range [][]string{{"-summary"}, nil} {
		code, want, stderr := runReport("", append(flags, both)...)
		if code != 0 {
			t.Fatalf("%v over the concatenation: exit %d: %s", flags, code, stderr)
		}
		for _, args := range [][]string{
			append(flags, s0, s1),
			append(flags, "-in", s0, "-in", s1),
			append(flags, "-i", "-"),
		} {
			code, got, stderr := runReport(string(joined), args...)
			if code != 0 || got != want {
				t.Errorf("%v: exit %d (%s), printed\n%s\nwant, as over the concatenation,\n%s", args, code, stderr, got, want)
			}
		}
	}
	code, got, _ := runReport("", "-summary", s0, s1)
	if code != 0 || !strings.Contains(got, fmt.Sprintf("sites crawled    %d\n", testSites)) {
		t.Errorf("-summary over both shards printed\n%s\nwant all %d sites crawled", got, testSites)
	}
}

// TestRefusals: every refused input exits non-zero, prints no report,
// and says why on stderr.
func TestRefusals(t *testing.T) {
	dir := t.TempDir()
	s0 := writeDataset(t, dir, 0, 2)
	good, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	malformed := writeFile(t, dir, "malformed.jsonl",
		bytes.Join([][]byte{lines[0], lines[1], []byte("{\"domain\": \n"), lines[2]}, nil))
	empty := writeFile(t, dir, "empty.jsonl", nil)

	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"malformed line", []string{s0, malformed}, 1, []string{malformed + ": dataset: line 3"}},
		{"malformed line, summary", []string{"-summary", malformed}, 1, []string{malformed + ": dataset: line 3"}},
		{"stdin twice", []string{"-i", "-", "-"}, 1, []string{"stdin ('-') may be given only once"}},
		{"empty dataset", []string{empty}, 1, []string{"empty dataset"}},
		{"empty dataset, summary", []string{"-summary", empty}, 1, []string{"empty dataset"}},
		{"missing file", []string{filepath.Join(dir, "nosuch.jsonl")}, 1, []string{"nosuch.jsonl"}},
		{"unknown flag", []string{"-nosuchflag", s0}, 2, []string{"nosuchflag"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runReport("", tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if stdout != "" {
				t.Errorf("printed %q on a refused input", stdout)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not name %q", stderr, w)
				}
			}
		})
	}
}
