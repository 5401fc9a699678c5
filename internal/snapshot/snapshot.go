// Package snapshot is the distributed-crawl reduce layer: a versioned,
// deterministic file format for in-progress metric state, and a Fold
// that combines N shard files — in any order or grouping — into exactly
// the accumulator a single-process crawl would have produced.
//
// A shard file is:
//
//	magic "HBSHARD\n"
//	uvarint  format version (FormatVersion)
//	varint   world seed
//	uvarint  shard count n (the world was split n ways)
//	uvarint  number of covered shard indices, then each index
//	         (sorted ascending; a freshly written file covers one,
//	         a re-marshaled partial fold covers several)
//	uvarint  number of metric sections, then per section:
//	           string  metric name (registry key)
//	           bytes   payload, length-prefixed — the metric's
//	                   EncodeState output
//
// Sections are written sorted by name and payloads are length-prefixed,
// so the bytes are a pure function of (header, metric states) and equal
// folds marshal to equal files regardless of how the shards were
// grouped on the way in. Decoding verifies that each section payload,
// and the file itself, is consumed exactly.
package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"headerbid/internal/wire"
)

// FormatVersion is the shard-file format this build reads and writes.
// Bump it for any wire-visible change: a metric codec layout, the
// registry name set, or the section framing.
const FormatVersion = 2

const magic = "HBSHARD\n"

// Header identifies which slice of which world a shard file covers.
type Header struct {
	Version    int   // format version (FormatVersion on write)
	Seed       int64 // world seed the crawl ran against
	ShardCount int   // n of the i/n split; 1 for an unsharded crawl
	Shards     []int // covered shard indices, sorted ascending
}

// MarshalShard writes a shard file. Metrics are written as sections
// sorted by Name(); duplicate names are an error since the fold merges
// by name.
func MarshalShard(w io.Writer, h Header, metrics []Codec) error {
	if h.ShardCount < 1 {
		return fmt.Errorf("snapshot: shard count %d < 1", h.ShardCount)
	}
	shards := append([]int(nil), h.Shards...)
	sort.Ints(shards)
	for i, s := range shards {
		if s < 0 || s >= h.ShardCount {
			return fmt.Errorf("snapshot: shard index %d outside 0..%d", s, h.ShardCount-1)
		}
		if i > 0 && shards[i-1] == s {
			return fmt.Errorf("snapshot: duplicate shard index %d", s)
		}
	}
	sorted := append([]Codec(nil), metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Name() == sorted[i].Name() {
			return fmt.Errorf("snapshot: duplicate metric %q", sorted[i].Name())
		}
	}

	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.Uvarint(FormatVersion)
	ww.Int64(h.Seed)
	ww.Uvarint(uint64(h.ShardCount))
	ww.Uvarint(uint64(len(shards)))
	for _, s := range shards {
		ww.Uvarint(uint64(s))
	}
	ww.Uvarint(uint64(len(sorted)))
	var buf bytes.Buffer
	for _, m := range sorted {
		buf.Reset()
		mw := wire.NewWriter(&buf)
		m.EncodeState(mw)
		if err := mw.Err(); err != nil {
			return fmt.Errorf("snapshot: encode %q: %w", m.Name(), err)
		}
		ww.String(m.Name())
		ww.Bytes(buf.Bytes())
	}
	return ww.Err()
}

// UnmarshalShard reads one whole shard file, instantiating each
// section's metric from the registry and refusing unknown formats,
// unknown metric names, malformed payloads and bytes after the last
// section.
func UnmarshalShard(rd io.Reader) (Header, []Codec, error) {
	var h Header
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(rd, got); err != nil {
		return h, nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(got) != magic {
		return h, nil, fmt.Errorf("snapshot: bad magic %q — not a shard file", got)
	}
	r := wire.NewReader(rd)
	h.Version = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return h, nil, err
	}
	if h.Version != FormatVersion {
		return h, nil, fmt.Errorf("snapshot: format version %d, this build reads %d", h.Version, FormatVersion)
	}
	h.Seed = r.Int64()
	h.ShardCount = int(r.Uvarint())
	nShards := r.Len()
	if err := r.Err(); err != nil {
		return h, nil, err
	}
	if h.ShardCount < 1 {
		return h, nil, fmt.Errorf("snapshot: shard count %d < 1", h.ShardCount)
	}
	h.Shards = make([]int, 0, r.Cap(nShards))
	for i := 0; i < nShards; i++ {
		s := int(r.Uvarint())
		if r.Err() != nil {
			return h, nil, r.Err()
		}
		if s < 0 || s >= h.ShardCount {
			return h, nil, fmt.Errorf("snapshot: shard index %d outside 0..%d", s, h.ShardCount-1)
		}
		if len(h.Shards) > 0 && s <= h.Shards[len(h.Shards)-1] {
			return h, nil, fmt.Errorf("snapshot: shard indices not sorted strictly ascending at %d", s)
		}
		h.Shards = append(h.Shards, s)
	}

	nMetrics := r.Len()
	if err := r.Err(); err != nil {
		return h, nil, err
	}
	metrics := make([]Codec, 0, r.Cap(nMetrics))
	prev := ""
	for i := 0; i < nMetrics; i++ {
		name := r.String()
		payload := r.Bytes()
		if err := r.Err(); err != nil {
			return h, nil, err
		}
		if i > 0 && name <= prev {
			return h, nil, fmt.Errorf("snapshot: sections not sorted by name at %q", name)
		}
		prev = name
		m, ok := New(name)
		if !ok {
			return h, nil, fmt.Errorf("snapshot: unknown metric %q — written by a newer build?", name)
		}
		pr := wire.NewReader(bytes.NewReader(payload))
		if err := m.DecodeState(pr); err != nil {
			return h, nil, fmt.Errorf("snapshot: decode %q: %w", name, err)
		}
		if err := pr.Close(); err != nil {
			return h, nil, fmt.Errorf("snapshot: decode %q: %w", name, err)
		}
		metrics = append(metrics, m)
	}
	if err := r.Close(); err != nil {
		return h, nil, fmt.Errorf("snapshot: bytes after the last section: %w", err)
	}
	return h, metrics, nil
}

// WriteShardFile marshals to path ("-" means stdout).
func WriteShardFile(path string, h Header, metrics []Codec) error {
	if path == "-" {
		return MarshalShard(os.Stdout, h, metrics)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := MarshalShard(f, h, metrics); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadShardFile unmarshals one shard file from disk.
func ReadShardFile(path string) (Header, []Codec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return UnmarshalShard(f)
}

// A Fold merges shard files into the single-process accumulator state.
// Shards may arrive in any order and any grouping (a re-marshaled
// partial fold is itself a valid input); the fold refuses shards from a
// different world (seed or shard count mismatch), overlapping coverage,
// and mismatched metric sets — each of those means the inputs are not
// slices of one crawl.
type Fold struct {
	h       Header
	byName  map[string]Codec
	names   []string // sorted; fixed by the first Add
	covered map[int]bool
}

// Add folds one shard's metrics in. The first Add fixes the fold's
// world identity and metric set; every later Add must match it.
func (f *Fold) Add(h Header, metrics []Codec) error {
	if f.covered == nil {
		if h.ShardCount < 1 {
			return fmt.Errorf("snapshot: shard count %d < 1", h.ShardCount)
		}
		f.h = Header{Version: FormatVersion, Seed: h.Seed, ShardCount: h.ShardCount}
		f.covered = make(map[int]bool, h.ShardCount)
		f.byName = make(map[string]Codec, len(metrics))
	}
	if h.Seed != f.h.Seed {
		return fmt.Errorf("snapshot: seed mismatch: fold has %d, shard has %d", f.h.Seed, h.Seed)
	}
	if h.ShardCount != f.h.ShardCount {
		return fmt.Errorf("snapshot: shard count mismatch: fold has %d, shard has %d", f.h.ShardCount, h.ShardCount)
	}
	for _, s := range h.Shards {
		if s < 0 || s >= f.h.ShardCount {
			return fmt.Errorf("snapshot: shard index %d outside 0..%d", s, f.h.ShardCount-1)
		}
		if f.covered[s] {
			return fmt.Errorf("snapshot: shard %d/%d already folded in", s, f.h.ShardCount)
		}
	}

	names := make([]string, 0, len(metrics))
	for _, m := range metrics {
		names = append(names, m.Name())
	}
	sort.Strings(names)
	if f.names == nil {
		f.names = names
	} else if !equalStrings(f.names, names) {
		return fmt.Errorf("snapshot: metric set mismatch: fold has %v, shard has %v", f.names, names)
	}

	for _, m := range metrics {
		if have, ok := f.byName[m.Name()]; ok {
			have.Merge(m)
		} else {
			f.byName[m.Name()] = m
		}
	}
	for _, s := range h.Shards {
		f.covered[s] = true
	}
	f.h.Shards = append(f.h.Shards, h.Shards...)
	sort.Ints(f.h.Shards)
	return nil
}

// Complete reports whether every shard 0..n-1 has been folded in.
func (f *Fold) Complete() bool {
	return f.covered != nil && len(f.covered) == f.h.ShardCount
}

// Header returns the fold's identity with the union of covered shards.
func (f *Fold) Header() Header { return f.h }

// Metrics returns the folded accumulators sorted by name — marshalable
// as-is into a combined (possibly still partial) shard file.
func (f *Fold) Metrics() []Codec {
	out := make([]Codec, 0, len(f.names))
	for _, n := range f.names {
		out = append(out, f.byName[n])
	}
	return out
}

// Get returns the folded accumulator for one metric name.
func (f *Fold) Get(name string) (Codec, bool) {
	m, ok := f.byName[name]
	return m, ok
}

// Missing lists the shard indices not yet folded in, sorted.
func (f *Fold) Missing() []int {
	if f.covered == nil {
		return nil
	}
	out := make([]int, 0, f.h.ShardCount-len(f.covered))
	for i := 0; i < f.h.ShardCount; i++ {
		if !f.covered[i] {
			out = append(out, i)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
