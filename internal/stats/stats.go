// Package stats implements the descriptive statistics used throughout the
// measurement pipeline: empirical CDFs, quantiles, five-number (whisker)
// summaries, histograms, fixed-width binning and rank correlation. Every
// figure in the paper is one of these shapes — CDFs (Figs 9, 12, 17, 19,
// 22), whisker plots (Figs 13-16, 20, 23-24) and bar charts (Figs 8, 10,
// 11, 18, 21).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by computations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ECDF is an empirical cumulative distribution function over float64
// samples. The zero value is empty; add samples with Add and call Sort (or
// any query method, which sorts lazily) before evaluating.
type ECDF struct {
	xs     []float64
	sorted bool
}

// NewECDF builds an ECDF from samples (the slice is copied).
func NewECDF(samples []float64) *ECDF {
	e := &ECDF{xs: append([]float64(nil), samples...)}
	e.Sort()
	return e
}

// Add appends one sample.
//
//hbvet:allow deadexport deletion deferred (ROADMAP item 13): only TestECDFAddLazySort calls it
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.xs) }

// Sort orders the sample buffer; queries call it automatically.
func (e *ECDF) Sort() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// P evaluates the ECDF at x: the fraction of samples <= x.
func (e *ECDF) P(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.Sort()
	i := sort.SearchFloat64s(e.xs, x)
	// Advance past equal values so P is "<= x".
	for i < len(e.xs) && e.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(e.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (type-7, the same default as numpy/matplotlib,
// which the paper's plots use).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	e.Sort()
	return quantileSorted(e.xs, q)
}

// Values returns the sorted sample slice; callers must not modify it.
func (e *ECDF) Values() []float64 {
	e.Sort()
	return e.xs
}

// Points returns n evenly spaced (x, P(x)) pairs suitable for plotting the
// CDF curve, spanning the sample range.
//
//hbvet:allow deadexport deletion deferred (ROADMAP item 13): only TestECDFPoints and TestECDFEmpty call it
func (e *ECDF) Points(n int) []Point {
	if len(e.xs) == 0 || n <= 0 {
		return nil
	}
	e.Sort()
	lo, hi := e.xs[0], e.xs[len(e.xs)-1]
	if n == 1 || lo == hi {
		return []Point{{hi, 1}}
	}
	pts := make([]Point, n)
	step := (hi - lo) / float64(n-1)
	for i := range pts {
		x := lo + float64(i)*step
		pts[i] = Point{X: x, Y: e.P(x)}
	}
	return pts
}

// Point is one (x, y) sample of a plotted series.
type Point struct{ X, Y float64 }

func quantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	if hi >= n {
		return xs[n-1]
	}
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Quantile computes a quantile of an unsorted sample without building an
// ECDF. It returns NaN for an empty sample.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

// Median is Quantile(samples, 0.5).
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// Box is a five-number whisker summary matching the paper's plot
// convention: whiskers at p5/p95, box at p25/p75, red line at the median.
type Box struct {
	N      int
	P5     float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Mean   float64
}

// BoxOf summarizes samples. It returns ErrEmpty for an empty sample.
func BoxOf(samples []float64) (Box, error) {
	if len(samples) == 0 {
		return Box{}, ErrEmpty
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return Box{
		N:      len(xs),
		P5:     quantileSorted(xs, 0.05),
		P25:    quantileSorted(xs, 0.25),
		Median: quantileSorted(xs, 0.50),
		P75:    quantileSorted(xs, 0.75),
		P95:    quantileSorted(xs, 0.95),
		Mean:   Mean(xs),
	}, nil
}

// WhiskerSpan returns the p5-p95 span, the "variability" measure used when
// the paper says popular partners have latencies with smaller variability.
func (b Box) WhiskerSpan() float64 { return b.P95 - b.P5 }

// Binner groups (key, value) observations into fixed-width integer-key
// bins and summarizes each bin with a Box. It backs the "metric vs rank"
// figures (latency vs Alexa rank in bins of 500, popularity rank in bins
// of 10, etc.).
type Binner struct {
	Width int
	bins  map[int][]float64
}

// NewBinner creates a binner with the given key width (>=1).
func NewBinner(width int) *Binner {
	if width < 1 {
		width = 1
	}
	return &Binner{Width: width, bins: make(map[int][]float64)}
}

// Add records value under integer key (e.g. a rank); the bin index is
// key/Width.
func (b *Binner) Add(key int, value float64) {
	idx := key / b.Width
	b.bins[idx] = append(b.bins[idx], value)
}

// Merge folds another binner's observations into b. Both binners must
// share the same width. Summaries are order-insensitive (each bin's box
// is computed over the sorted sample multiset), so merging shards in any
// order yields identical summaries.
func (b *Binner) Merge(other *Binner) {
	for idx, xs := range other.bins {
		b.bins[idx] = append(b.bins[idx], xs...)
	}
}

// BinSummary is the whisker summary of one bin.
type BinSummary struct {
	Bin   int // bin index; covers keys [Bin*Width, (Bin+1)*Width)
	Lo    int // first key covered
	Hi    int // last key covered (inclusive)
	Stats Box
}

// Summaries returns per-bin summaries ordered by bin index.
func (b *Binner) Summaries() []BinSummary {
	idxs := make([]int, 0, len(b.bins))
	for i := range b.bins {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]BinSummary, 0, len(idxs))
	for _, i := range idxs {
		box, err := BoxOf(b.bins[i])
		if err != nil {
			continue
		}
		out = append(out, BinSummary{
			Bin:   i,
			Lo:    i * b.Width,
			Hi:    (i+1)*b.Width - 1,
			Stats: box,
		})
	}
	return out
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or NaN when undefined.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of two equal-length
// samples (average ranks for ties).
//
//hbvet:allow deadexport deletion deferred (ROADMAP item 13): only TestSpearmanMonotone and TestSpearmanTies call it
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	return Pearson(ranks(xs), ranks(ys))
}

func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i) + float64(j)) / 2
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
