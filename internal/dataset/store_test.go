package dataset

import "testing"

// TestChunksTake: a take is a full slice of zeroed storage that no other
// take shares; the first chunk is sized to the first request, each
// later one doubles the previous size up to chunkBytes, a larger
// request gets a chunk of its own size, and a chunk without room is
// dropped.
func TestChunksTake(t *testing.T) {
	var c chunks[int64] // 8 bytes: a full chunk holds 2047
	var taken [][]int64
	take := func(n, wantSize int) {
		t.Helper()
		s := c.take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("take(%d): len %d cap %d, want a full slice", n, len(s), cap(s))
		}
		if c.size != wantSize {
			t.Fatalf("take(%d): chunk of %d, want %d", n, c.size, wantSize)
		}
		for i := range s {
			if s[i] != 0 {
				t.Fatalf("take(%d): element %d is %d, not zeroed", n, i, s[i])
			}
			s[i] = int64(len(taken) + 1)
		}
		taken = append(taken, s)
	}
	take(3, 3)       // the first chunk is the first request's size
	take(1, 6)       // no room left: a new chunk of twice the size
	take(4, 6)       // fits the rest of it but one
	take(7, 12)      // the last free element is dropped
	take(1000, 1000) // larger than twice the previous size
	take(1, 2000)
	take(1999, 2000)
	take(1, 2047) // capped at chunkBytes, less the allocator's header
	take(5000, 5000)
	take(1, 2047)
	for k, s := range taken {
		for i, v := range s {
			if v != int64(k+1) {
				t.Fatalf("take %d, element %d reads %d: a later take wrote it", k+1, i, v)
			}
		}
	}
	if s := c.take(0); s == nil || len(s) != 0 {
		t.Fatalf("take(0) = %#v, want an empty non-nil slice", s)
	}
	if n := testing.AllocsPerRun(10, func() { c.take(0) }); n != 0 {
		t.Fatalf("take(0) allocates %v times", n)
	}
}

// TestStoreCopiesStrings: a copied string owns its bytes, and the empty
// string takes no storage.
func TestStoreCopiesStrings(t *testing.T) {
	var st Store
	src := []byte("site00001.example")
	s := st.copyString(string(src))
	src[0] = 'x'
	if s != "site00001.example" {
		t.Fatalf("copy reads %q after its source changed", s)
	}
	if st.copyString("") != "" || st.bytes.size != len(s) {
		t.Fatalf("the empty string took storage: chunk of %d bytes", st.bytes.size)
	}
}
