package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
	}

	// NewECDF sorts its own copy: unsorted input answers the same, and
	// the caller's slice keeps its order.
	in := []float64{3, 1, 2, 0}
	u := NewECDF(in)
	if got := u.Quantile(0.5); got != 1.5 {
		t.Errorf("median of unsorted input = %v, want 1.5", got)
	}
	if got := u.P(0); got != 0.25 {
		t.Errorf("P(0) of unsorted input = %v, want 0.25", got)
	}
	if in[0] != 3 {
		t.Errorf("NewECDF reordered the caller's slice: %v", in)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.P(1) != 0 {
		t.Fatal("empty ECDF P != 0")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Fatal("empty ECDF quantile should be NaN")
	}
}

// Property: ECDF is monotone nondecreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, probes []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		e := NewECDF(clean)
		sort.Float64s(probes)
		prev := 0.0
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			v := e.P(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are within sample bounds and monotone in q.
func TestQuantileBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := Quantile(clean, q)
			if v < lo-1e-9 || v > hi+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Fatalf("q25 = %v, want 2.5", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestBoxOf(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	b, err := BoxOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 100 || math.Abs(b.Median-50.5) > 1e-9 {
		t.Fatalf("box = %+v", b)
	}
	if b.P25 >= b.Median || b.Median >= b.P75 || b.P5 >= b.P25 || b.P75 >= b.P95 {
		t.Fatalf("box quantiles not ordered: %+v", b)
	}
	if iqr := b.P75 - b.P25; iqr <= 0 || b.WhiskerSpan() <= iqr {
		t.Fatalf("IQR/WhiskerSpan inconsistent: %+v", b)
	}
	if _, err := BoxOf(nil); err != ErrEmpty {
		t.Fatalf("BoxOf(nil) err = %v, want ErrEmpty", err)
	}
}

func TestBinner(t *testing.T) {
	b := NewBinner(500)
	for rank := 0; rank < 1500; rank++ {
		b.Add(rank, float64(rank/500)) // bin index as value
	}
	sums := b.Summaries()
	if len(sums) != 3 {
		t.Fatalf("bins = %d, want 3", len(sums))
	}
	for i, s := range sums {
		if s.Bin != i || s.Stats.Median != float64(i) {
			t.Fatalf("bin %d summary wrong: %+v", i, s)
		}
		if s.Lo != i*500 || s.Hi != i*500+499 {
			t.Fatalf("bin %d bounds: %+v", i, s)
		}
	}
}
