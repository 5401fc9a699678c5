package wire

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// readerOps are the Reader's methods, one per op code of FuzzReader's
// program (op % len(readerOps)), each returning what a transcript
// records. Len and Cap come last: on their own they answer by source
// (see sourceDependent).
var readerOps = []func(*Reader) any{
	func(r *Reader) any { return r.Uvarint() },
	func(r *Reader) any { return r.Int() },
	func(r *Reader) any { return r.Int64() },
	func(r *Reader) any { return r.Bool() },
	func(r *Reader) any { return r.Float64() },
	func(r *Reader) any { return r.String() },
	func(r *Reader) any { return r.Bytes() },
	func(r *Reader) any { return r.Float64s() },
	func(r *Reader) any { return r.Strings() },
	func(r *Reader) any { return r.Close() },
	func(r *Reader) any { return r.Err() },
	func(r *Reader) any { return r.Len() },
	func(r *Reader) any { return r.Cap(r.Len()) },
}

// sourceDependent reports whether op calls Len or Cap directly. A
// length the stream cannot hold fails at Len on a source that knows how
// many bytes remain, but only once the content is read on one that does
// not, and Cap trusts a length only on the first kind; a program with
// such an op may read differently from the two sources.
func sourceDependent(op byte) bool { return int(op)%len(readerOps) >= len(readerOps)-2 }

// readerSources are the two kinds of source a Reader meets: an
// in-memory bytes.Reader, which reports how many bytes remain, and a
// plain io.Reader that cannot and also returns short reads.
var readerSources = []struct {
	name string
	of   func([]byte) io.Reader
}{
	{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"plain reader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// runOps drives a Reader over data through the op program ops and
// returns its transcript.
func runOps(src io.Reader, ops []byte) string {
	r := NewReader(src)
	var sb bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&sb, "%v|", readerOps[int(op)%len(readerOps)](r))
	}
	return sb.String()
}

// FuzzReader reads arbitrary bytes through every Reader method, in the
// order an arbitrary op program picks, from each source kind. It must
// never panic, and the bytes one program allocates must stay under a
// bound linear in the input: a hostile length prefix costs at most one
// bounded first step (growStep elements) before the stream runs out,
// and everything else is paid for by input bytes. A program that reads
// only through the content methods must give the same transcript
// (values and errors) from both sources, since a length prefix the
// stream cannot hold fails as a truncation either way. The
// committed corpus under testdata/fuzz/FuzzReader/ holds a well-formed
// stream of every primitive, the hostile and corrupt cases of
// wire_test.go, and a Strings count the stream cannot hold whose
// elements reach a corrupt length first.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		var transcripts []string
		for _, src := range readerSources {
			n := allocated(func() {
				r := NewReader(src.of(data))
				for _, op := range ops {
					readerOps[int(op)%len(readerOps)](r)
				}
			})
			if bound := uint64(1<<17 + 64*len(data)); n > bound {
				t.Fatalf("%s: ops %v over %d bytes allocated %d bytes, bound %d", src.name, ops, len(data), n, bound)
			}
			transcripts = append(transcripts, runOps(src.of(data), ops))
		}
		if transcripts[0] != transcripts[1] && !slices.ContainsFunc(ops, sourceDependent) {
			t.Fatalf("ops %v over %q:\n%s %s\n%s %s", ops, data,
				readerSources[0].name, transcripts[0], readerSources[1].name, transcripts[1])
		}
	})
}
