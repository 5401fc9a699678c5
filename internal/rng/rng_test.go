package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestSplitStableIndependentOfOrder(t *testing.T) {
	// Children must not depend on sibling enumeration order.
	x1 := SplitStable(7, "alpha").Float64()
	_ = SplitStable(7, "beta").Float64()
	x2 := SplitStable(7, "alpha").Float64()
	if x1 != x2 {
		t.Fatal("SplitStable child depends on sibling order")
	}
}

func TestSplitStableDistinctNames(t *testing.T) {
	a := SplitStable(7, "a").Float64()
	b := SplitStable(7, "b").Float64()
	if a == b {
		t.Fatal("distinct names produced identical streams (suspicious)")
	}
}

// TestReseedStableMatchesSplitStable pins the pooled restart to the
// allocating derivation: a used stream reseeded in place from a name
// hashed in pieces draws exactly what SplitStable's fresh stream draws.
func TestReseedStableMatchesSplitStable(t *testing.T) {
	s := New(1)
	for _, c := range []struct{ prefix, name string }{
		{"eco/bid/", "appnexus"}, {"eco/gampad", ""}, {"", "eco/cdn"}, {"eco/doc/", "site00042.example"},
	} {
		s.NormFloat64() // leave a spare deviate behind: reseeding must drop it
		s.ReseedStable(99, NameOf(c.prefix).Append(c.name))
		want := SplitStable(99, c.prefix+c.name)
		for i := 0; i < 64; i++ {
			if g, w := s.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("%q+%q draw %d: reseeded %v, SplitStable %v", c.prefix, c.name, i, g, w)
			}
		}
	}
}

func TestBoolBounds(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(2)
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %.3f", got)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		x := r.Uniform(2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform(2,5) = %v", x)
		}
	}
	// Swapped bounds are tolerated.
	x := r.Uniform(5, 2)
	if x < 2 || x >= 5 {
		t.Fatalf("Uniform(5,2) = %v", x)
	}
}

func TestUniformIntInclusive(t *testing.T) {
	r := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.UniformInt(1, 3)
		if v < 1 || v > 3 {
			t.Fatalf("UniformInt(1,3) = %d", v)
		}
		seen[v] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("UniformInt did not cover range: %v", seen)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(5)
	mu, sigma := LogNormalParams(250, 600)
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, r.LogNormal(mu, sigma))
	}
	sort.Float64s(xs)
	med := xs[len(xs)/2]
	if math.Abs(med-250)/250 > 0.05 {
		t.Fatalf("lognormal median = %.1f, want ≈250", med)
	}
	p90 := xs[int(0.9*float64(len(xs)))]
	if math.Abs(p90-600)/600 > 0.08 {
		t.Fatalf("lognormal p90 = %.1f, want ≈600", p90)
	}
}

func TestLogNormalParamsDegenerate(t *testing.T) {
	// p90 <= median must not produce NaN/negative sigma.
	mu, sigma := LogNormalParams(100, 50)
	if math.IsNaN(mu) || math.IsNaN(sigma) || sigma < 0 {
		t.Fatalf("degenerate params: mu=%v sigma=%v", mu, sigma)
	}
	mu, sigma = LogNormalParams(0, 0)
	if math.IsNaN(mu) || math.IsNaN(sigma) {
		t.Fatalf("zero params: mu=%v sigma=%v", mu, sigma)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(6)
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("categorical[%d] = %.3f, want %.3f", i, got, want)
		}
	}
}

func TestCategoricalEdgeCases(t *testing.T) {
	r := New(7)
	if got := r.Categorical([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("all-zero weights -> %d, want 0", got)
	}
	if got := r.Categorical([]float64{-1, 0, 5}); got != 2 {
		t.Fatalf("negative weights not skipped: %d", got)
	}
	if got := r.Categorical([]float64{3}); got != 0 {
		t.Fatalf("single weight -> %d", got)
	}
}

func TestWeightedSampleWithoutReplacementDistinct(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := New(seed)
		weights := make([]float64, 30)
		for i := range weights {
			weights[i] = 1 + float64(i%7)
		}
		k := int(kRaw%40) + 1
		idxs := r.WeightedSampleWithoutReplacement(weights, k)
		seen := map[int]bool{}
		for _, i := range idxs {
			if i < 0 || i >= len(weights) || seen[i] {
				return false
			}
			seen[i] = true
		}
		wantLen := k
		if wantLen > len(weights) {
			wantLen = len(weights)
		}
		return len(idxs) == wantLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSampleSkipsZeroWeights(t *testing.T) {
	r := New(8)
	weights := []float64{0, 5, 0, 5, 0}
	for trial := 0; trial < 100; trial++ {
		for _, idx := range r.WeightedSampleWithoutReplacement(weights, 2) {
			if idx != 1 && idx != 3 {
				t.Fatalf("sampled zero-weight index %d", idx)
			}
		}
	}
}

func TestWeightedSampleBias(t *testing.T) {
	r := New(9)
	weights := []float64{10, 1, 1, 1, 1}
	first := 0
	const n = 5000
	for i := 0; i < n; i++ {
		idxs := r.WeightedSampleWithoutReplacement(weights, 1)
		if idxs[0] == 0 {
			first++
		}
	}
	got := float64(first) / n
	if got < 0.6 {
		t.Fatalf("heavy item sampled %.2f of the time, want > 0.6", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

var alloCSink float64

func TestSeedingIsCheap(t *testing.T) {
	// Seeding must be a few integer mixes: at most the one Stream struct
	// per derivation, never math/rand's 607-word table.
	allocs := testing.AllocsPerRun(1000, func() {
		alloCSink += SplitStable(5, "alloc/test").Float64()
	})
	if allocs > 1 {
		t.Fatalf("SplitStable allocates %v objects per call, want <= 1", allocs)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := 10 + 3*r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %.3f, want ≈10", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Fatalf("normal std = %.3f, want ≈3", std)
	}
}

func TestIntnUnbiased(t *testing.T) {
	r := New(14)
	const n = 60000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[r.Intn(3)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/n-1.0/3) > 0.01 {
			t.Fatalf("Intn(3) bucket %d frequency %.4f", i, float64(c)/n)
		}
	}
}

func BenchmarkSplitStable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alloCSink += SplitStable(int64(i), "bench/stream").Float64()
	}
}

// TestNameAppendIsOrderSensitive: a name built in pieces is a path, not
// a set. Swapped segments hash, and so derive streams, apart, while the
// same pieces in the same order match the whole name.
func TestNameAppendIsOrderSensitive(t *testing.T) {
	ab := NameOf("eco/bid/").Append("a").Append("b")
	ba := NameOf("eco/bid/").Append("b").Append("a")
	if ab == ba {
		t.Fatal("path segments commute")
	}
	if ab != NameOf("eco/bid/ab") {
		t.Fatal("NameOf(x).Append(y) != NameOf(x+y)")
	}
	var sab, sba Stream
	sab.ReseedStable(42, ab)
	sba.ReseedStable(42, ba)
	if sab.Float64() == sba.Float64() {
		t.Fatal("streams of swapped path segments agree")
	}
}
