package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// sortFloatsCases are the input shapes the kernel meets or must survive,
// by name, at length n. "subnormals" and "close-runs" agree in the high
// bytes the radix passes order and differ below them; the last group
// (from "negative" on) holds a key above +Inf's bits, where bit order is
// not value order.
func sortFloatsCases(n int, r *RNG) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	timers := []float64{10.24, 5.12, 0.32, 11.576, 61}
	cases := map[string][]float64{
		"random":       gen(func(int) float64 { return r.Lognormal(3, 2) }),
		"all-equal":    gen(func(int) float64 { return 10.24 }),
		"sorted":       gen(func(i int) float64 { return float64(i) * 0.001 }),
		"reversed":     gen(func(i int) float64 { return float64(n-i) * 0.001 }),
		"few-distinct": gen(func(int) float64 { return timers[r.Intn(len(timers))] }),
		"ms-grid":      gen(func(int) float64 { return float64(r.Intn(3_600_000)) / 1000 }),
		"subnormals":   gen(func(int) float64 { return math.Float64frombits(uint64(r.Intn(1 << 20))) }),
		"with-inf":     gen(func(i int) float64 { return []float64{math.Inf(1), r.Exp(1), math.MaxFloat64, 0}[i%4] }),
		"close-runs": gen(func(i int) float64 {
			return math.Float64frombits(math.Float64bits(timers[i%len(timers)]) ^ r.Uint64()>>40)
		}),
		"any-magnitude": gen(func(int) float64 { return math.Float64frombits(r.Uint64() % (infBits + 1)) }),
		"negative":      gen(func(i int) float64 { return r.Exp(1) - float64(i%7/6) }),
		"minus-zero":    gen(func(i int) float64 { return []float64{0, math.Copysign(0, -1), 0, 1}[i%4] }),
		"nan-first":     gen(func(i int) float64 { return r.Exp(1) }),
		"nan-last":      gen(func(i int) float64 { return r.Exp(1) }),
		"any-bits":      gen(func(int) float64 { return math.Float64frombits(r.Uint64()) }),
	}
	if n > 0 {
		cases["nan-first"][0] = math.NaN()
		cases["nan-last"][n-1] = math.NaN()
	}
	return cases
}

// TestSortFloatsMatchesSlicesSort holds the kernel to the sorts it
// replaced, element-wise on the bit patterns: slices.Sort for every
// shape, and sort.Float64s too — what NewEmpirical called — which
// matters for the shapes that fall back, where equal values with unequal
// bits (-0 among +0) and NaNs make the result depend on the algorithm.
// The scratch buffer is shared across all calls, as Build shares it.
func TestSortFloatsMatchesSlicesSort(t *testing.T) {
	r := NewRNG(5)
	var scratch []float64
	lengths := []int{0, 1, 2, 7, floatRadixCutoff - 1, floatRadixCutoff, floatRadixCutoff + 1, 1000, 70_000}
	for _, n := range lengths {
		for name, xs := range sortFloatsCases(n, r) {
			want := slices.Clone(xs)
			slices.Sort(want)
			old := slices.Clone(xs)
			sort.Float64s(old)
			got := slices.Clone(xs)
			SortFloats(got, &scratch)
			for i := range got {
				g := math.Float64bits(got[i])
				if g != math.Float64bits(want[i]) || g != math.Float64bits(old[i]) {
					t.Fatalf("%s n=%d: element %d is %v (%#x), slices.Sort has %v (%#x), sort.Float64s %v",
						name, n, i, got[i], g, want[i], math.Float64bits(want[i]), old[i])
				}
			}
		}
	}
}

// TestSortFloatsGrowsScratchOnce: the buffer is the caller's, sized by
// the largest radix-sorted input and untouched by the paths that do not
// need it.
func TestSortFloatsGrowsScratchOnce(t *testing.T) {
	r := NewRNG(6)
	var scratch []float64
	SortFloats(sortFloatsCases(floatRadixCutoff-1, r)["random"], &scratch)
	SortFloats(sortFloatsCases(5000, r)["sorted"], &scratch)
	SortFloats(sortFloatsCases(5000, r)["negative"], &scratch)
	if scratch != nil {
		t.Fatalf("small, sorted and fallback inputs allocated a %d-value scratch", cap(scratch))
	}
	SortFloats(sortFloatsCases(5000, r)["random"], &scratch)
	if cap(scratch) < 5000 {
		t.Fatalf("scratch holds %d values after a 5000-value sort", cap(scratch))
	}
	xs := sortFloatsCases(4000, r)["random"]
	if n := testing.AllocsPerRun(10, func() {
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		SortFloats(xs, &scratch)
	}); n != 0 {
		t.Fatalf("sorting into a large-enough scratch allocated %v times", n)
	}
}

// BenchmarkSortFloats times the kernel against slices.Sort on Build's two
// shapes — heavy-tailed durations and the few-distinct inactivity-timer
// shape — and on the kernel's worst one, timers with noise below the
// radix-sorted bytes, where the passes leave everything to sortCloseRuns.
// Each iteration sorts a copy of the next window of a large sample, so no
// branch predictor learns the input; the copy is in both columns.
func BenchmarkSortFloats(b *testing.B) {
	for _, n := range []int{1000, 100_000} {
		for _, shape := range []string{"random", "few-distinct", "close-runs"} {
			src := sortFloatsCases(max(4*n, 1<<18), NewRNG(9))[shape]
			xs := make([]float64, n)
			var scratch []float64
			for name, sortFn := range map[string]func(){
				"radix":       func() { SortFloats(xs, &scratch) },
				"slices.Sort": func() { slices.Sort(xs) },
			} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", shape, n, name), func(b *testing.B) {
					for i, off := 0, 0; i < b.N; i, off = i+1, (off+n)%(len(src)-n) {
						copy(xs, src[off:])
						sortFn()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
				})
			}
		}
	}
}
