// Package wire implements the deterministic binary primitives the
// snapshot codec is built from: varint-prefixed strings and slices,
// fixed-width IEEE-754 floats, and zigzag-encoded ints, behind sticky
// Writer/Reader wrappers so codec methods never check an error per
// field. The encoding has no self-description — layout is fixed by the
// snapshot format version — which is what makes encode(decode(b)) == b
// achievable byte for byte.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// ErrCorrupt reports a structurally invalid stream (an implausible
// length prefix, trailing bytes, or a truncated value).
var ErrCorrupt = errors.New("wire: corrupt stream")

// maxLen bounds any single length prefix (strings, slices). State this
// codec carries is far below it; anything above is a corrupt or hostile
// stream, refused before allocation.
const maxLen = 1 << 30

// Writer encodes primitives to an io.Writer with a sticky error: after
// the first failure every call is a no-op and Err returns the cause.
type Writer struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	n := binary.PutUvarint(w.buf[:], x)
	w.write(w.buf[:n])
}

// Int writes a signed int as a zigzag varint.
func (w *Writer) Int(x int) {
	n := binary.PutVarint(w.buf[:], int64(x))
	w.write(w.buf[:n])
}

// Int64 writes a signed 64-bit value as a zigzag varint.
func (w *Writer) Int64(x int64) {
	n := binary.PutVarint(w.buf[:], x)
	w.write(w.buf[:n])
}

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	w.buf[0] = 0
	if b {
		w.buf[0] = 1
	}
	w.write(w.buf[:1])
}

// Float64 writes the IEEE-754 bits, little-endian, fixed 8 bytes.
func (w *Writer) Float64(f float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(f))
	w.write(w.buf[:8])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.write(p)
}

// Float64s writes a length-prefixed float64 slice in order.
func (w *Writer) Float64s(xs []float64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Float64(x)
	}
}

// Strings writes a length-prefixed string slice in order.
func (w *Writer) Strings(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes primitives with a sticky error: after the first
// failure every call returns the zero value and Err returns the cause.
//
// A length prefix never sizes an allocation beyond what the stream can
// hold. When the source reports how many bytes remain (bytes.Reader,
// which every snapshot section payload is), a prefix that claims more
// than that fails before anything is allocated; otherwise a slice grows
// in bounded steps as its bytes arrive. Either way a corrupt or hostile
// prefix costs memory in proportion to the input, not to the prefix.
// Strings is the exception to failing early: see there.
type Reader struct {
	r    io.ByteReader
	src  io.Reader
	left lener // src, when it can say how many bytes remain; else nil
	err  error
	buf  [8]byte
}

// lener is implemented by the in-memory readers (bytes.Reader,
// bytes.Buffer, strings.Reader): Len is the number of unread bytes.
type lener interface{ Len() int }

// growStep bounds the first allocation for a length whose bytes the
// source cannot vouch for; the slice doubles from there as they arrive.
const growStep = 4096

// byteReader adapts a plain io.Reader to io.ByteReader. Snapshot
// sections arrive as in-memory buffers (bytes.Reader implements
// ByteReader natively), so this path is the exception, not the rule.
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var p [1]byte
	if _, err := io.ReadFull(b.r, p[:]); err != nil {
		return 0, err
	}
	return p[0], nil
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = byteReader{r: r}
	}
	left, _ := r.(lener)
	return &Reader{r: br, src: r, left: left}
}

// Err returns the first read error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(err)
		return 0
	}
	return x
}

// Int reads a zigzag varint as an int.
func (r *Reader) Int() int { return int(r.Int64()) }

// Int64 reads a zigzag varint.
func (r *Reader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(err)
		return 0
	}
	return x
}

// Bool reads one byte written by Writer.Bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail(err)
		return false
	}
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrCorrupt)
		return false
	}
}

// Float64 reads a fixed 8-byte little-endian IEEE-754 value.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.src, r.buf[:8]); err != nil {
		r.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[:8]))
}

// Len reads a length prefix, refusing implausible values before any
// allocation sized by them: above maxLen, or more elements than bytes
// remain in a source that knows (every element this codec writes takes
// at least one byte). A prefix that overruns the stream fails as the
// truncation it is, with io.ErrUnexpectedEOF.
func (r *Reader) Len() int { return r.lenOf(1) }

// lenOf is Len for elements of at least size bytes each.
func (r *Reader) lenOf(size uint64) int {
	n := r.count()
	if r.left != nil && uint64(n)*size > uint64(r.left.Len()) {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	return n
}

// count reads a length prefix and refuses it above maxLen only.
func (r *Reader) count() int {
	n := r.Uvarint()
	if n > maxLen {
		r.fail(ErrCorrupt)
		return 0
	}
	return int(n)
}

// Cap is the capacity to start a slice with that will hold the n
// elements a length prefix announced: at most the bytes remaining when
// the source reports them (every element takes at least one byte), which
// is n itself after Len; at most growStep otherwise. Appending then
// grows the slice only as its elements actually arrive.
func (r *Reader) Cap(n int) int {
	if r.left != nil {
		return min(n, r.left.Len())
	}
	return min(n, growStep)
}

// readN reads the n bytes a length prefix announced.
func (r *Reader) readN(n int) []byte {
	p := make([]byte, r.Cap(n))
	got := 0
	for {
		if _, err := io.ReadFull(r.src, p[got:]); err != nil {
			r.fail(err)
			return nil
		}
		if len(p) == n {
			return p
		}
		got = len(p)
		p = append(p, make([]byte, min(n-got, got))...)
	}
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return ""
	}
	p := r.readN(n)
	if r.err != nil {
		return ""
	}
	return string(p)
}

// Bytes reads a length-prefixed byte slice (nil when empty).
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	return r.readN(n)
}

// Float64s reads a length-prefixed float64 slice (nil when empty, so
// encode→decode→encode reproduces the bytes of a nil slice).
func (r *Reader) Float64s() []float64 {
	n := r.lenOf(8)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]float64, 0, r.Cap(n))
	for i := 0; i < n && r.err == nil; i++ {
		xs = append(xs, r.Float64())
	}
	if r.err != nil {
		return nil
	}
	return xs
}

// Strings reads a length-prefixed string slice (nil when empty). Its
// count is refused above maxLen but not checked against the bytes
// remaining: each element carries its own length prefix, so a count the
// stream cannot hold fails where the elements run out. Checking it up
// front would report a truncation on a source that knows its length
// where a plain source, reading element by element, first meets a
// corrupt element and reports that. Cap still bounds the allocation.
func (r *Reader) Strings() []string {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([]string, 0, r.Cap(n))
	for i := 0; i < n && r.err == nil; i++ {
		ss = append(ss, r.String())
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// Close asserts the stream is fully consumed: exactly at EOF, with no
// prior error. Snapshot sections are length-delimited, so trailing
// bytes mean the section and its decoder disagree on layout.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if _, err := r.r.ReadByte(); err != io.EOF {
		if err == nil {
			err = ErrCorrupt
		}
		return err
	}
	return nil
}
