package headerbid

import (
	"io"

	"headerbid/internal/sitegen"
	"headerbid/internal/snapshot"
)

// Shard identifies one slice of an n-way world partition — the unit of
// the distributed crawl. Pass it to an Experiment with WithShard, or
// parse the CLI "i/n" syntax with ParseShard.
type Shard = sitegen.Shard

// ParseShard parses the "i/n" CLI syntax (e.g. "2/4").
func ParseShard(s string) (Shard, error) { return sitegen.ParseShard(s) }

// MetricCodec is a Metric whose accumulator state round-trips through
// the shard-file format: the FigureReport, every figure metric it
// bundles, and what the constructors in metrics.go return.
type MetricCodec = snapshot.Codec

// ShardHeader identifies which slice of which world a shard file
// covers.
type ShardHeader = snapshot.Header

// ShardFold merges shard files — in any order or grouping — into the
// accumulator state a single-process crawl would have produced.
type ShardFold = snapshot.Fold

// MarshalShard writes the shard file for one crawled slice.
func MarshalShard(w io.Writer, h ShardHeader, metrics []MetricCodec) error {
	return snapshot.MarshalShard(w, h, metrics)
}

// UnmarshalShard reads one whole shard file, refusing unknown format
// versions, unknown metric names and bytes after the last section.
//
//hbvet:allow deadexport used by bench/ (module hbbench)
func UnmarshalShard(r io.Reader) (ShardHeader, []MetricCodec, error) {
	return snapshot.UnmarshalShard(r)
}

// WriteShardFile marshals to the file at path, replacing it. A command
// that takes "-" for its stdout marshals there itself (MarshalShard).
func WriteShardFile(path string, h ShardHeader, metrics []MetricCodec) error {
	return snapshot.WriteShardFile(path, h, metrics)
}

// ReadShardFile unmarshals one shard file from disk.
func ReadShardFile(path string) (ShardHeader, []MetricCodec, error) {
	return snapshot.ReadShardFile(path)
}
