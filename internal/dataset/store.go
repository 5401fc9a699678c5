package dataset

import "unsafe"

// chunkBytes caps the size of a chunk (DESIGN.md §5.3). The allocator
// puts an 8-byte header in front of a chunk over 512 bytes of values
// with pointers, so a chunk holds at most chunkBytes-8 bytes of values:
// one more string would take the chunk to the next size class, 18 KB.
const chunkBytes = 16 << 10

// chunks is append-only storage for values of type T. A take hands out
// a full slice (cap == len) of zeroed storage at the free end of the
// current chunk; a chunk without room for a request is dropped, never
// rewound, so storage once handed out is never handed out again. The
// first chunk is sized to the first request and each later one doubles
// the previous size, up to chunkBytes (a larger request gets a chunk of
// its own size), so a producer that takes little carries a small tail.
// The zero value is ready to use; chunks is not safe for concurrent use.
type chunks[T any] struct {
	free []T // the free end of the current chunk
	size int // the current chunk's length
}

// take returns n zeroed values as a full slice: empty but not nil for
// n == 0, as encoding/json decodes [].
func (c *chunks[T]) take(n int) []T {
	if n == 0 {
		return []T{}
	}
	if n > len(c.free) {
		limit := max(1, (chunkBytes-8)/int(unsafe.Sizeof(*new(T))))
		c.size = max(n, min(2*c.size, limit))
		c.free = make([]T, c.size)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// Store is the storage a producer of records takes their lists and
// copied strings from: append-only chunks (one per element type) that
// it owns for as long as it produces records. A crawl's worker keeps
// its store for the crawl (FromObservation), and a later crawl's worker
// takes it over; a ReadStream decoder keeps one for the stream. A
// record holds full slices of the chunks, so an append to one of its
// lists copies instead of writing into a neighbour's, and a held record
// keeps alive its own struct and maps and the chunks its lists and
// strings sit in, each of up to chunkBytes: one per element type for a
// record FromObservation builds, which takes each type once. The zero
// value is ready to use; a Store is not safe for concurrent use.
type Store struct {
	names    chunks[string]
	auctions chunks[AuctionRecord]
	bids     chunks[BidRecord]
	floats   chunks[float64]
	bytes    chunks[byte]
}

// copyString returns a copy of s in the store's byte chunks.
func (st *Store) copyString(s string) string {
	if s == "" {
		return ""
	}
	b := st.bytes.take(len(s))
	copy(b, s)
	return unsafe.String(unsafe.SliceData(b), len(b))
}
