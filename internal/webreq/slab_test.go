package webreq

import "testing"

// TestSlabPointersStayValid: a slot never moves while later Allocs add
// chunks, and Reset hands the same storage out again, zeroed.
func TestSlabPointersStayValid(t *testing.T) {
	var s Slab[Response]
	var ptrs []*Response
	for i := 0; i < 21; i++ {
		p := s.Alloc()
		if p.RequestID != 0 {
			t.Fatalf("slot %d not zeroed", i)
		}
		p.RequestID = int64(i + 1)
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if p.RequestID != int64(i+1) {
			t.Fatalf("slot %d moved or was overwritten: RequestID %d", i, p.RequestID)
		}
	}
	s.Reset()
	for i, p := range ptrs {
		if p.RequestID != 0 {
			t.Fatalf("Reset left slot %d set", i)
		}
	}
	for i := range ptrs {
		if p := s.Alloc(); p != ptrs[i] {
			t.Fatalf("after Reset, Alloc %d returned new storage", i)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		s.Reset()
		for range ptrs {
			s.Alloc()
		}
	}); n != 0 {
		t.Fatalf("a rewound slab allocates %.0f times for a visit it has held before", n)
	}
}
