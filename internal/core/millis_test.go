package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"cptraffic/internal/stats"
)

// The float kernels Build ran before its sample lists held milliseconds,
// kept as the oracles of TestMillisKernelsMatchFloat: each millisecond
// kernel must return, bit for bit, what its float kernel returns on the
// seconds images of the same lists.

// fitSojournFloats is fitSojourn over a list of seconds.
func fitSojournFloats(samples []float64, kind string) SojournModel {
	if len(samples) == 0 {
		return SojournModel{Kind: SojournConst, Value: 60}
	}
	allEqual := true
	for _, x := range samples[1:] {
		if x != samples[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return SojournModel{Kind: SojournConst, Value: samples[0]}
	}
	switch kind {
	case SojournExp:
		fit, err := stats.FitExponential(samples)
		if err != nil {
			return SojournModel{Kind: SojournConst, Value: stats.Mean(samples)}
		}
		return SojournModel{Kind: SojournExp, Lambda: fit.Lambda}
	default:
		n := stats.DefaultQuantilePoints
		if len(samples) < n {
			n = max(len(samples)+1, 2)
		}
		slices.Sort(samples)
		return SojournModel{Kind: SojournTable, Q: stats.EmpiricalOfSorted(samples).QuantileTable(n).Q}
	}
}

// kaplanMeierFloats is the float Kaplan–Meier kernel over ascending lists
// of seconds.
func kaplanMeierFloats(f, c []float64) (q []float64, tail float64, ok bool) {
	if len(f) == 0 {
		return nil, 1, false
	}
	n := len(f) + len(c)
	type step struct {
		t float64
		F float64 // cumulative incidence 1 - S(t)
	}
	steps := make([]step, 0, len(f))
	S := 1.0
	for fi, ci := 0, 0; fi < len(f); {
		t := f[fi]
		for ci < len(c) && c[ci] < t {
			ci++
		}
		atRisk := n - fi - ci
		d := 1 // events at t
		for fi+d < len(f) && f[fi+d] == t {
			d++
		}
		fi += d
		S *= 1 - float64(d)/float64(atRisk)
		steps = append(steps, step{t: t, F: 1 - S})
	}
	tail = S
	fMax := 1 - S
	if fMax <= 0 {
		return nil, 1, false
	}
	points := stats.DefaultQuantilePoints
	qv := make([]float64, points)
	si := 0
	for k := 0; k < points; k++ {
		p := float64(k) / float64(points-1) * fMax
		for si < len(steps)-1 && steps[si].F < p {
			si++
		}
		qv[k] = steps[si].t
	}
	qv[0] = steps[0].t
	qv[points-1] = steps[len(steps)-1].t
	return qv, tail, true
}

// imagesOf returns the seconds images of xs.
func imagesOf[T sample](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = secs(x)
	}
	return out
}

// sameBits reports whether two float slices hold the same bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameModel reports whether two sojourn models are the same bits.
func sameModel(a, b SojournModel) bool {
	return a.Kind == b.Kind && sameBits(a.Q, b.Q) &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// millisLengths straddle the radix cutoff.
var millisLengths = []int{1, 2, 3, millisRadixCutoff - 1, millisRadixCutoff, millisRadixCutoff + 1, 300, 5000}

// millisShapes are the list shapes of a width, by name: each draws n
// values from r.
func millisShapes[T sample](wide bool) map[string]func(r *rand.Rand) T {
	shapes := map[string]func(r *rand.Rand) T{
		"ties":         func(r *rand.Rand) T { return T(r.IntN(8) * 250) },
		"seconds":      func(r *rand.Rand) T { return T(r.IntN(600_000)) },
		"heavy-tailed": func(r *rand.Rand) T { return T(min(math.Exp(r.NormFloat64()*3+8), 4e9)) },
		"all-equal":    func(*rand.Rand) T { return 10_240 },
		"zero-and-one": func(r *rand.Rand) T { return T(r.IntN(2)) },
	}
	if !wide {
		shapes["full-uint32"] = func(r *rand.Rand) T { return T(r.Uint32()) }
		return shapes
	}
	shapes["negative"] = func(r *rand.Rand) T { return T(r.IntN(20_000) - 10_000) }
	shapes["negative-ties"] = func(r *rand.Rand) T { return T(r.IntN(5) - 2) }
	shapes["2^32-and-more"] = func(r *rand.Rand) T { return T(1<<32 + r.IntN(3)*1000 - 1000) }
	shapes["days"] = func(r *rand.Rand) T { return T(r.Int64N(100 * 86_400_000)) }
	shapes["full-int64"] = func(r *rand.Rand) T { return T(int64(r.Uint64())) }
	// Above 1000·2^43 ms neighbouring integers share a seconds image.
	shapes["shared-images"] = func(r *rand.Rand) T { return T(int64(1000<<43) + r.Int64N(16)) }
	return shapes
}

// TestMillisKernelsMatchFloat holds every millisecond kernel to its float
// kernel on the seconds images of the same lists, bit for bit: the sort
// (slices.Sort), the merge of ascending lists (slices.Sort of their
// concatenation), the table and exponential fits (fitSojourn's float
// form), the censored exponential MLE and Kaplan–Meier — on uint32 and
// int64 lists, on ties, one value, all-equal lists, negative values,
// values of 2^32 ms and more, integers that share an image, and lengths
// on either side of the radix cutoff.
func TestMillisKernelsMatchFloat(t *testing.T) {
	checkMillisKernels[uint32](t, false)
	checkMillisKernels[int64](t, true)
}

func checkMillisKernels[T sample](t *testing.T, wide bool) {
	r := rand.New(rand.NewPCG(40, 2))
	var sc fitScratch[T]
	shapes := millisShapes[T](wide)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		draw := shapes[name]
		for _, n := range millisLengths {
			tag := fmt.Sprintf("%T %s n=%d", T(0), name, n)
			xs := make([]T, n)
			for i := range xs {
				xs[i] = draw(r)
			}

			// Sort.
			got := slices.Clone(xs)
			sortMillis(got, &sc.sort)
			want := imagesOf(xs)
			slices.Sort(want)
			if !sameBits(imagesOf(got), want) {
				t.Fatalf("%s: sortMillis's images differ from slices.Sort's", tag)
			}

			// Table and exponential fits.
			for _, kind := range []string{SojournTable, SojournExp} {
				got := fitSojourn(slices.Clone(xs), kind, &sc)
				want := fitSojournFloats(imagesOf(xs), kind)
				if !sameModel(got, want) {
					t.Fatalf("%s %s fit: %+v, the float fit %+v", tag, kind, got, want)
				}
			}

			// Merge of 1 to 5 ascending lists, empty ones included.
			parts := 1 + r.IntN(5)
			lists := make([][]T, parts)
			for i := range xs {
				p := r.IntN(parts)
				lists[p] = append(lists[p], xs[i])
			}
			for _, l := range lists {
				slices.Sort(l)
			}
			merged := mergeMillis(slices.Clone(lists))
			if !sameBits(imagesOf(merged), want) {
				t.Fatalf("%s: mergeMillis of %d lists differs from slices.Sort of their concatenation", tag, parts)
			}

			// Kaplan–Meier and the censored exponential MLE, on fired and
			// censored delays of one shape, so values tie within and
			// across the two sides.
			fired := slices.Clone(lists[0])
			censored := slices.Concat(lists[1:]...)
			slices.Sort(censored)
			gq, gtail, gok := kaplanMeier(fired, censored)
			wq, wtail, wok := kaplanMeierFloats(imagesOf(fired), imagesOf(censored))
			if gok != wok || math.Float64bits(gtail) != math.Float64bits(wtail) || !sameBits(gq, wq) {
				t.Fatalf("%s: kaplanMeier of %d fired, %d censored: ok %v tail %v, the float kernel ok %v tail %v (grids equal: %v)",
					tag, len(fired), len(censored), gok, gtail, wok, wtail, sameBits(gq, wq))
			}
			gl, gok := censoredExp(lists[:1], censored, &sc)
			wl, wok := stats.CensoredExpMLE(imagesOf(fired), imagesOf(censored))
			if gok != wok || math.Float64bits(gl) != math.Float64bits(wl) {
				t.Fatalf("%s: censoredExp %v (ok %v), CensoredExpMLE %v (ok %v)", tag, gl, gok, wl, wok)
			}
		}
	}
}

// TestSharedImagesExist pins the premise of millisShapes'
// "shared-images" shape: seconds is injective below 1000·2^43 ms, and
// above it neighbouring integers can share an image, so the kernels must
// compare images, not integers, to find the float kernel's ties.
func TestSharedImagesExist(t *testing.T) {
	const bound = int64(1000 << 43)
	for m := bound - 10_000; m+1 < bound; m++ {
		if secs(m) == secs(m+1) {
			t.Fatalf("%d and %d ms share an image below 1000·2^43", m, m+1)
		}
	}
	for m := bound; m < bound+64; m++ {
		if secs(m) == secs(m+1) {
			return
		}
	}
	t.Fatal("no two neighbouring integers share an image above 1000·2^43 ms")
}
