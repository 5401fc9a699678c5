package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestRoundTrip drives every primitive through an encode→decode cycle
// and re-encodes the decoded values, asserting byte equality — the
// fixed point the snapshot codec's byte-exactness rests on.
func TestRoundTrip(t *testing.T) {
	encode := func(ints []int, f float64, b bool, s string, fs []float64, ss []string) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, x := range ints {
			w.Int(x)
		}
		w.Uvarint(12345)
		w.Int64(-1 << 40)
		w.Float64(f)
		w.Bool(b)
		w.String(s)
		w.Float64s(fs)
		w.Strings(ss)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		return buf.Bytes()
	}

	ints := []int{0, 1, -1, 1 << 30, -(1 << 30)}
	first := encode(ints, math.Pi, true, "héllo", []float64{1.5, -2.25, 0}, []string{"a", "", "bb"})

	r := NewReader(bytes.NewReader(first))
	var gotInts []int
	for range ints {
		gotInts = append(gotInts, r.Int())
	}
	if u := r.Uvarint(); u != 12345 {
		t.Fatalf("Uvarint = %d", u)
	}
	if x := r.Int64(); x != -1<<40 {
		t.Fatalf("Int64 = %d", x)
	}
	f := r.Float64()
	b := r.Bool()
	s := r.String()
	fs := r.Float64s()
	ss := r.Strings()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2)
	for _, x := range gotInts {
		w2.Int(x)
	}
	w2.Uvarint(12345)
	w2.Int64(-1 << 40)
	w2.Float64(f)
	w2.Bool(b)
	w2.String(s)
	w2.Float64s(fs)
	w2.Strings(ss)
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("re-encoding decoded values changed the bytes")
	}
}

// TestEmptySlicesDecodeNil: empty encoded slices decode to nil so a
// decoded accumulator re-encodes to the same bytes as one that never
// appended (both write length 0).
func TestEmptySlicesDecodeNil(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Float64s(nil)
	w.Float64s([]float64{})
	w.Strings(nil)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if xs := r.Float64s(); xs != nil {
		t.Fatalf("empty Float64s decoded non-nil: %v", xs)
	}
	if xs := r.Float64s(); xs != nil {
		t.Fatalf("empty []float64{} decoded non-nil: %v", xs)
	}
	if ss := r.Strings(); ss != nil {
		t.Fatalf("empty Strings decoded non-nil: %v", ss)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedStream: every truncation point yields a sticky error,
// never a partial zero-value success.
func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("hello")
	w.Float64(2.5)
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_ = r.String()
		_ = r.Float64()
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
		if r.Err() == io.EOF {
			t.Fatalf("truncation at %d surfaced as bare io.EOF", cut)
		}
	}
}

// TestCloseRejectsTrailingBytes: a decoder that under-consumes its
// section must be caught by Close.
func TestCloseRejectsTrailingBytes(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0x00, 0xFF}))
	r.Uvarint()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted trailing bytes")
	}
}

// TestImplausibleLengthRefused: a corrupt length prefix fails before
// allocation.
func TestImplausibleLengthRefused(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 40) // far above maxLen
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("implausible length accepted (s=%q err=%v)", s, r.Err())
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileLengthBoundedAllocation: a length prefix claiming far more
// than the input holds fails as a truncation without allocating for the
// claim — refused up front when the source knows how many bytes remain,
// grown in bounded steps when it does not. Unbounded, a 5-byte input
// claiming 1<<27 float64s would allocate 1 GiB.
func TestHostileLengthBoundedAllocation(t *testing.T) {
	prefix := func(n uint64) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Uvarint(n)
		buf.WriteByte(7) // one byte of content
		return buf.Bytes()
	}
	decoders := map[string]func(*Reader){
		"Float64s": func(r *Reader) { r.Float64s() },
		"String":   func(r *Reader) { _ = r.String() },
		"Bytes":    func(r *Reader) { r.Bytes() },
		"Strings":  func(r *Reader) { r.Strings() },
	}
	sources := map[string]func([]byte) io.Reader{
		"bytes.Reader": func(b []byte) io.Reader { return bytes.NewReader(b) },
		"plain reader": func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
	}
	for _, claim := range []uint64{1 << 27, maxLen} {
		in := prefix(claim)
		for dn, dec := range decoders {
			for sn, src := range sources {
				var err error
				n := allocated(func() {
					r := NewReader(src(in))
					dec(r)
					err = r.Err()
				})
				if err != io.ErrUnexpectedEOF {
					t.Errorf("%s claiming %d from a %s: err %v, want io.ErrUnexpectedEOF", dn, claim, sn, err)
				}
				if n >= 1<<20 {
					t.Errorf("%s claiming %d from a %s (%d-byte input) allocated %d bytes", dn, claim, sn, len(in), n)
				}
			}
		}
	}
}

// TestLongPayloadFromPlainReader: content longer than one growth step
// decodes intact from a source that cannot report its length.
func TestLongPayloadFromPlainReader(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 3*growStep/10+7)
	xs := make([]float64, growStep+3)
	for i := range xs {
		xs[i] = float64(i) / 3
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(want)
	w.Float64s(xs)
	r := NewReader(iotest.HalfReader(bytes.NewReader(buf.Bytes())))
	got, gotXs := r.Bytes(), r.Float64s()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !reflect.DeepEqual(gotXs, xs) {
		t.Fatal("payload longer than a growth step did not round-trip")
	}
}

// TestCorruptBool: bool bytes other than 0/1 are refused — they would
// otherwise round-trip to different bytes.
func TestCorruptBool(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{2}))
	if r.Bool(); r.Err() == nil {
		t.Fatal("corrupt bool byte accepted")
	}
}
