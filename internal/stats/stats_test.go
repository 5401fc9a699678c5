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
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.P(1) != 0 {
		t.Fatal("empty ECDF P != 0")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Fatal("empty ECDF quantile should be NaN")
	}
	if e.Points(5) != nil {
		t.Fatal("empty ECDF points should be nil")
	}
}

func TestECDFAddLazySort(t *testing.T) {
	var e ECDF
	e.Add(3)
	e.Add(1)
	e.Add(2)
	if got := e.Quantile(0.5); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	e.Add(0) // re-dirty
	if got := e.P(0); got != 0.25 {
		t.Fatalf("P(0) = %v, want 0.25", got)
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

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Fatal("constant series should give NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{1, 2})) {
		t.Fatal("length mismatch should give NaN")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 10, 100, 1000, 10000} // monotone but nonlinear
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("spearman = %v, want 1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-9 {
		t.Fatalf("spearman with ties = %v, want 1", r)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{0, 10})
	pts := e.Points(11)
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 10 {
		t.Fatalf("point range wrong: %v..%v", pts[0], pts[10])
	}
	if pts[10].Y != 1 {
		t.Fatalf("last point Y = %v", pts[10].Y)
	}
	// Single-valued sample.
	e2 := NewECDF([]float64{5, 5, 5})
	pts2 := e2.Points(4)
	if len(pts2) != 1 || pts2[0].Y != 1 {
		t.Fatalf("degenerate points = %v", pts2)
	}
}
