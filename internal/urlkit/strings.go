package urlkit

import "unsafe"

// stringsChunk is the size of a Strings chunk. One owner sends a few
// hundred bytes to a few kilobytes per visit, so a chunk, one
// allocation, serves many visits.
const stringsChunk = 16 << 10

// Strings is append-only storage for the strings one owner builds and
// sends: URLs, response bodies and the values written into them. The
// owner reserves room at the free end of the current chunk (Room),
// appends its bytes there and takes a string over them (Take). Bytes
// already taken are never written again, and a chunk without the room
// asked for is dropped, never rewound, so every string stays immutable
// for as long as anything holds it. A held string keeps its whole chunk
// alive, 16 KB of what other visits sent, so nothing that outlives a
// visit (a record, a world memo, a registry) may point into one: a
// record's lists and copied strings come from its producer's
// dataset.Store, whose chunks hold records' storage alone. The zero
// value is ready to use; a Strings is not safe for concurrent use.
type Strings struct {
	chunk []byte // taken bytes, then the free room up to cap
}

// Room returns an empty buffer at the free end of the chunk with room
// for at least n bytes, starting a new chunk when the current one has
// less left. Append to it and Take the result before the next Room.
func (s *Strings) Room(n int) []byte {
	if cap(s.chunk)-len(s.chunk) < n || s.chunk == nil {
		s.chunk = make([]byte, 0, max(n, stringsChunk))
	}
	return s.chunk[len(s.chunk):len(s.chunk)]
}

// Take returns b, the buffer the last Room returned with bytes appended
// to it, as a string, and moves the free end past those bytes. Appended
// past the chunk's end, b moved to an array of its own: the string then
// takes that array over, and the chunk stays as it was. The caller must
// not write b again.
func (s *Strings) Take(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if free := s.chunk[len(s.chunk):cap(s.chunk)]; len(b) <= len(free) && unsafe.SliceData(b) == unsafe.SliceData(free) {
		s.chunk = s.chunk[:len(s.chunk)+len(b)]
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// WithQuery returns WithQuery(base, q), built in s.
func (s *Strings) WithQuery(base string, q Query) string {
	return s.Take(AppendQuery(s.Room(encodedLen(base, q)), base, q))
}
