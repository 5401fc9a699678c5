package snapshot_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/report"
	"headerbid/internal/rng"
	"headerbid/internal/sitegen"
	"headerbid/internal/snapshot"
	"headerbid/internal/wire"
)

// records crawls a small multi-day world once per test binary — rich
// enough that every registered metric accumulates non-trivial state
// (multiple facets, late bids, prices, degradation counters stay zero).
func records(t testing.TB) []*dataset.SiteRecord {
	t.Helper()
	cfg := sitegen.DefaultConfig(31)
	cfg.NumSites = 250
	w := sitegen.Generate(cfg)
	opts := crawler.DefaultOptions(31)
	opts.Days = 3
	return crawler.CrawlWorld(w, opts)
}

func encodeBytes(t testing.TB, m snapshot.Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	m.EncodeState(w)
	if err := w.Err(); err != nil {
		t.Fatalf("encoding %q: %v", m.Name(), err)
	}
	return buf.Bytes()
}

func decodeFresh(t testing.TB, name string, b []byte) snapshot.Codec {
	t.Helper()
	m, ok := snapshot.New(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	r := wire.NewReader(bytes.NewReader(b))
	if err := m.DecodeState(r); err != nil {
		t.Fatalf("decoding %q: %v", name, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("decoding %q left the stream dirty: %v", name, err)
	}
	return m
}

// TestRoundTripByteExact: for every registered metric, both the empty
// accumulator and one fed a real crawl encode → decode → re-encode to
// identical bytes, and a second fresh accumulator fed the same records
// encodes to the same bytes as the first. Byte-exactness (not just
// value equality) is what makes re-marshaled partial folds
// deterministic, and shard files a function of their records.
func TestRoundTripByteExact(t *testing.T) {
	recs := records(t)
	for _, name := range snapshot.Names() {
		m, _ := snapshot.New(name)
		empty := encodeBytes(t, m)
		if got := encodeBytes(t, decodeFresh(t, name, empty)); !bytes.Equal(got, empty) {
			t.Errorf("%s: empty state round-trip not byte-exact (%d vs %d bytes)", name, len(got), len(empty))
		}
		again, _ := snapshot.New(name)
		for _, r := range recs {
			m.Add(r)
			again.Add(r)
		}
		full := encodeBytes(t, m)
		if got := encodeBytes(t, decodeFresh(t, name, full)); !bytes.Equal(got, full) {
			t.Errorf("%s: populated state round-trip not byte-exact (%d vs %d bytes)", name, len(got), len(full))
		}
		if got := encodeBytes(t, again); !bytes.Equal(got, full) {
			t.Errorf("%s: two folds of the same records encode differently (%d vs %d bytes)", name, len(got), len(full))
		}
	}
}

// TestDecodedMergeMatchesInMemory: splitting the record stream into
// random parts, serializing each part's accumulator, and merging the
// decoded copies produces byte-for-byte the state of merging the
// in-memory originals in the same order — decode loses nothing Merge
// depends on. Randomized splits (seeded, via internal/rng) exercise
// uneven and empty parts.
func TestDecodedMergeMatchesInMemory(t *testing.T) {
	recs := records(t)
	for trial := 0; trial < 4; trial++ {
		s := rng.SplitStable(97, "snapshot/split/"+string(rune('a'+trial)))
		parts := 1 + s.Intn(4)
		assign := make([]int, len(recs))
		for i := range assign {
			assign[i] = s.Intn(parts)
		}
		for _, name := range snapshot.Names() {
			mem := make([]snapshot.Codec, parts)
			via := make([]snapshot.Codec, parts)
			for p := 0; p < parts; p++ {
				m, _ := snapshot.New(name)
				for i, r := range recs {
					if assign[i] == p {
						m.Add(r)
					}
				}
				mem[p] = m
				via[p] = decodeFresh(t, name, encodeBytes(t, m))
			}
			memTotal, _ := snapshot.New(name)
			viaTotal, _ := snapshot.New(name)
			for p := 0; p < parts; p++ {
				memTotal.Merge(mem[p])
				viaTotal.Merge(via[p])
			}
			if !bytes.Equal(encodeBytes(t, memTotal), encodeBytes(t, viaTotal)) {
				t.Errorf("trial %d (%d parts): %s: decoded merge differs from in-memory merge", trial, parts, name)
			}
		}
	}
}

// shardFileBytes marshals a header+metrics pair in memory.
func shardFileBytes(t testing.TB, h snapshot.Header, ms []snapshot.Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.MarshalShard(&buf, h, ms); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardFileRoundTrip: a marshaled file unmarshals to the same
// header and re-marshals to identical bytes, regardless of the order
// metrics were handed to MarshalShard.
func TestShardFileRoundTrip(t *testing.T) {
	recs := records(t)
	names := snapshot.Names()
	ms := make([]snapshot.Codec, 0, len(names))
	for _, name := range names {
		m, _ := snapshot.New(name)
		for _, r := range recs {
			m.Add(r)
		}
		ms = append(ms, m)
	}
	h := snapshot.Header{Seed: 31, ShardCount: 4, Shards: []int{2}}
	file := shardFileBytes(t, h, ms)

	// Reversed metric order must marshal identically (sections sort).
	rev := make([]snapshot.Codec, len(ms))
	for i, m := range ms {
		rev[len(ms)-1-i] = m
	}
	if !bytes.Equal(shardFileBytes(t, h, rev), file) {
		t.Fatal("metric argument order leaked into the file bytes")
	}

	gh, gms, err := snapshot.UnmarshalShard(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if gh.Version != snapshot.FormatVersion || gh.Seed != 31 || gh.ShardCount != 4 ||
		len(gh.Shards) != 1 || gh.Shards[0] != 2 {
		t.Fatalf("header round-trip: %+v", gh)
	}
	if !bytes.Equal(shardFileBytes(t, gh, gms), file) {
		t.Fatal("unmarshal → re-marshal not byte-exact")
	}
}

// TestUnmarshalRefusals: the reader refuses wrong magic, unknown format
// versions, unknown metric names, truncated files and bytes after the
// last section — never returning a silently partial result.
func TestUnmarshalRefusals(t *testing.T) {
	m, _ := snapshot.New("summary")
	file := shardFileBytes(t, snapshot.Header{Seed: 1, ShardCount: 1, Shards: []int{0}}, []snapshot.Codec{m})

	if _, _, err := snapshot.UnmarshalShard(bytes.NewReader([]byte("NOTASHRD-rest"))); err == nil {
		t.Error("bad magic accepted")
	}

	// The version uvarint sits immediately after the 8-byte magic.
	bumped := append([]byte(nil), file...)
	bumped[8] = snapshot.FormatVersion + 1
	if _, _, err := snapshot.UnmarshalShard(bytes.NewReader(bumped)); err == nil {
		t.Error("future format version accepted")
	}

	for cut := 0; cut < len(file); cut++ {
		if _, _, err := snapshot.UnmarshalShard(bytes.NewReader(file[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(file))
		}
	}

	trailing := append(bytes.Clone(file), 'X')
	if _, _, err := snapshot.UnmarshalShard(bytes.NewReader(trailing)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("a byte after the last section: err %v, want %v", err, wire.ErrCorrupt)
	}

	// Corrupt the section name: "summary" occurs once in the file.
	i := bytes.Index(file, []byte("summary"))
	if i < 0 {
		t.Fatal("section name not found in file")
	}
	unknown := append([]byte(nil), file...)
	unknown[i] = 'z'
	if _, _, err := snapshot.UnmarshalShard(bytes.NewReader(unknown)); err == nil {
		t.Error("unknown metric name accepted")
	}
}

// TestHostileShardBoundedAllocation: length prefixes in a shard file
// that claim more than the file holds — a 2^30-entry shard list, a
// 2^30-byte section payload — fail as truncations with less than 1 MiB
// allocated, whether the file arrives as an in-memory reader or as a
// plain stream. Unbounded, the payload case — a 22-byte file — would
// allocate 1 GiB and the shard-list case 8 GiB.
func TestHostileShardBoundedAllocation(t *testing.T) {
	header := func(w *wire.Writer) {
		w.Uvarint(snapshot.FormatVersion)
		w.Int64(1) // seed
		w.Uvarint(1)
	}
	var shards, payload bytes.Buffer
	shards.WriteString("HBSHARD\n")
	w := wire.NewWriter(&shards)
	header(w)
	w.Uvarint(1 << 30) // covered shard indices
	w.Uvarint(0)
	payload.WriteString("HBSHARD\n")
	w = wire.NewWriter(&payload)
	header(w)
	w.Uvarint(1) // one covered shard: index 0
	w.Uvarint(0)
	w.Uvarint(1) // one section
	w.String("x")
	w.Uvarint(1 << 30) // payload length
	w.Uvarint(0)
	for name, file := range map[string][]byte{"shard list": shards.Bytes(), "section payload": payload.Bytes()} {
		for src, rd := range map[string]func() io.Reader{
			"bytes.Reader": func() io.Reader { return bytes.NewReader(file) },
			"plain reader": func() io.Reader { return iotest.HalfReader(bytes.NewReader(file)) },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := snapshot.UnmarshalShard(rd())
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s from a %s: err %v, want unexpected EOF", name, src, err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("%s from a %s (%d-byte file): allocated %d bytes", name, src, len(file), n)
			}
		}
	}
}

// TestHugeClampRendersPromptly: Figures 15 and 20 clamp their counts
// at a configured maximum that the file carries. A Result that walked
// every count up to the clamp would never return on a hostile one, so
// each section decoded with a clamp of 1<<62 must still render its one
// row within a deadline.
func TestHugeClampRendersPromptly(t *testing.T) {
	for _, name := range []string{"latency_vs_partner_count", "latency_vs_slots"} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Int(1 << 62)
		if name == "latency_vs_partner_count" {
			w.Uvarint(0) // the site table: no domains,
			w.Uvarint(0) // no HB domains
		}
		w.Uvarint(1) // latency samples at one count: 3
		w.Int(3)
		w.Float64s([]float64{250})
		m := decodeFresh(t, name, buf.Bytes())
		done := make(chan any, 1)
		go func() { done <- m.Snapshot() }()
		select {
		case got := <-done:
			if rows := got.([]analysis.CountLatency); len(rows) != 1 || rows[0].Partners != 3 {
				t.Errorf("%s: rows %+v, want one at count 3", name, rows)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Result has not returned 5 s after decoding a clamp of 1<<62", name)
		}
	}
}

// TestFoldRefusals: a fold refuses shards from a different world (seed
// or shard-count mismatch), overlapping coverage, and mismatched metric
// sets.
func TestFoldRefusals(t *testing.T) {
	mk := func(names ...string) []snapshot.Codec {
		out := make([]snapshot.Codec, 0, len(names))
		for _, n := range names {
			m, ok := snapshot.New(n)
			if !ok {
				t.Fatalf("metric %q not registered", n)
			}
			out = append(out, m)
		}
		return out
	}
	var f snapshot.Fold
	if err := f.Add(snapshot.Header{Seed: 1, ShardCount: 3, Shards: []int{0}}, mk("summary", "traffic")); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(snapshot.Header{Seed: 2, ShardCount: 3, Shards: []int{1}}, mk("summary", "traffic")); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := f.Add(snapshot.Header{Seed: 1, ShardCount: 4, Shards: []int{1}}, mk("summary", "traffic")); err == nil {
		t.Error("shard count mismatch accepted")
	}
	if err := f.Add(snapshot.Header{Seed: 1, ShardCount: 3, Shards: []int{0}}, mk("summary", "traffic")); err == nil {
		t.Error("overlapping shard accepted")
	}
	if err := f.Add(snapshot.Header{Seed: 1, ShardCount: 3, Shards: []int{1}}, mk("summary")); err == nil {
		t.Error("metric set mismatch accepted")
	}
	if f.Complete() {
		t.Error("fold claims completeness at 1/3 shards")
	}
	if got := f.Missing(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Missing() = %v, want [1 2]", got)
	}
	if err := f.Add(snapshot.Header{Seed: 1, ShardCount: 3, Shards: []int{1, 2}}, mk("summary", "traffic")); err != nil {
		t.Fatal(err)
	}
	if !f.Complete() {
		t.Error("fold not complete after covering 0,1,2")
	}
}

// TestFoldOrderAndGroupingInvariance: folding per-part shard files in
// any order — including via a re-marshaled partial fold — yields
// accumulators whose rendered results match a straight sequential
// merge. Encoded state may legitimately differ across fold orders
// (sample slices concatenate in fold order); what must be invariant is
// everything Snapshot/Render derive, which the repo's metric laws
// guarantee and the end-to-end test in the root package pins to the
// single-process report bytes.
func TestFoldOrderAndGroupingInvariance(t *testing.T) {
	recs := records(t)
	const n = 3
	build := func() [][]snapshot.Codec {
		parts := make([][]snapshot.Codec, n)
		for p := 0; p < n; p++ {
			for _, name := range []string{"figure_report", "degradation"} {
				m, _ := snapshot.New(name)
				for i, r := range recs {
					if i%n == p {
						m.Add(r)
					}
				}
				parts[p] = append(parts[p], m)
			}
		}
		return parts
	}
	hdr := func(idx ...int) snapshot.Header {
		return snapshot.Header{Seed: 31, ShardCount: n, Shards: idx}
	}

	// Straight order: 0, 1, 2.
	var straight snapshot.Fold
	for p, ms := range build() {
		if err := straight.Add(hdr(p), ms); err != nil {
			t.Fatal(err)
		}
	}
	// Reverse order, each part round-tripped through its file bytes.
	var reverse snapshot.Fold
	parts := build()
	for p := n - 1; p >= 0; p-- {
		h, ms, err := snapshot.UnmarshalShard(bytes.NewReader(shardFileBytes(t, hdr(p), parts[p])))
		if err != nil {
			t.Fatal(err)
		}
		if err := reverse.Add(h, ms); err != nil {
			t.Fatal(err)
		}
	}
	// Grouped: fold {2,1} first, re-marshal the partial fold, then fold
	// the combined file with part 0.
	var pre snapshot.Fold
	parts = build()
	for _, p := range []int{2, 1} {
		if err := pre.Add(hdr(p), parts[p]); err != nil {
			t.Fatal(err)
		}
	}
	combined := shardFileBytes(t, pre.Header(), pre.Metrics())
	var grouped snapshot.Fold
	h, ms, err := snapshot.UnmarshalShard(bytes.NewReader(combined))
	if err != nil {
		t.Fatal(err)
	}
	if err := grouped.Add(h, ms); err != nil {
		t.Fatal(err)
	}
	if err := grouped.Add(hdr(0), build()[0]); err != nil {
		t.Fatal(err)
	}

	for _, f := range []*snapshot.Fold{&straight, &reverse, &grouped} {
		if !f.Complete() {
			t.Fatal("fold incomplete")
		}
	}
	want := renderedFold(t, &straight)
	if got := renderedFold(t, &reverse); !bytes.Equal(got, want) {
		t.Error("reverse-order fold renders a different report")
	}
	if got := renderedFold(t, &grouped); !bytes.Equal(got, want) {
		t.Error("grouped (re-marshaled partial) fold renders a different report")
	}
}

// renderedFold renders a fold's figure report to bytes.
func renderedFold(t testing.TB, f *snapshot.Fold) []byte {
	t.Helper()
	m, ok := f.Get("figure_report")
	if !ok {
		t.Fatal("fold has no figure_report")
	}
	var buf bytes.Buffer
	m.(*report.Figures).Render(&buf)
	return buf.Bytes()
}
