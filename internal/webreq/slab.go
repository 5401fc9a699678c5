package webreq

import "headerbid/internal/urlkit"

// Slab chunk lengths. The first chunk fits the three requests of a
// non-HB visit, the crawl's common case, exactly; an HB visit (6–57
// requests, median 13) adds four-slot chunks. A page or network that
// is never rewound therefore pays at most three unused slots over
// allocating one object per request, and a rewound one allocates
// nothing once its chunks cover the largest visit it has seen.
const (
	slabFirst = 3
	slabChunk = 4
)

// Slab is visit-scoped storage for the per-request objects a pooled
// owner hands to the scheduler as closure-free call arguments: the
// simulated network's in-flight calls and the page's pending fetches.
// Objects live in fixed-size chunks that are appended and never
// reallocated, so a pointer from Alloc never moves: it stays valid until
// the owner's next Reset, whatever else is allocated meanwhile. The zero
// value is ready to use.
type Slab[T any] struct {
	chunks [][]T
	ci, n  int // the next free slot is chunks[ci][n]
}

// Alloc returns a zeroed slot. The caller owns it until the next Reset.
func (s *Slab[T]) Alloc() *T {
	if s.ci < len(s.chunks) && s.n == len(s.chunks[s.ci]) {
		s.ci, s.n = s.ci+1, 0
	}
	if s.ci == len(s.chunks) {
		size := slabChunk
		if s.ci == 0 {
			size = slabFirst
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
	p := &s.chunks[s.ci][s.n]
	s.n++
	return p
}

// Reset zeroes every slot handed out since the previous Reset, dropping
// the references they held, and rewinds the slab so the next Alloc
// reuses the first slot. Pointers from earlier Allocs are invalid
// afterwards: the owner must know that nothing still uses them.
func (s *Slab[T]) Reset() {
	for i := 0; i < s.ci; i++ {
		clear(s.chunks[i])
	}
	if s.ci < len(s.chunks) {
		clear(s.chunks[s.ci][:s.n])
	}
	s.ci, s.n = 0, 0
}

// Requests is a page's visit-scoped request storage: the requests it
// hands out and the queries parsed from their URLs (Request.Params).
// Reset rewinds both. The zero value is ready to use.
type Requests struct {
	reqs    Slab[Request]
	queries urlkit.Queries
}

// New returns a zeroed request whose parsed query will live in s. The
// caller owns it until the next Reset.
func (s *Requests) New() *Request {
	r := s.reqs.Alloc()
	r.queries = &s.queries
	return r
}

// Reset rewinds s: the requests and the queries handed out since the
// previous Reset are invalid afterwards.
func (s *Requests) Reset() {
	s.reqs.Reset()
	s.queries.Reset()
}
