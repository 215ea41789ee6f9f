package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the same stream")
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 9 {
		t.Fatalf("zero-seeded RNG nearly constant: %d distinct of 10", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1, s2, s1again := r.SplitVal(1), r.SplitVal(2), r.SplitVal(1)
	if s1.Uint64() != s1again.Uint64() {
		t.Fatal("Split not deterministic for same key")
	}
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Fatal("Split streams for different keys coincide")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
		o := r.OpenFloat64()
		if o <= 0 || o >= 1 {
			t.Fatalf("OpenFloat64 out of range: %v", o)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", m)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) biased: count[%d] = %d", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestExpSampleMoments(t *testing.T) {
	r := NewRNG(4)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp(2.0)
		if x <= 0 {
			t.Fatalf("Exp returned %v", x)
		}
		sum += x
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", m)
	}
}

func TestNormSampleMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		z := r.Norm()
		sum += z
		sumSq += z * z
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 || math.Abs(variance-1) > 0.02 {
		t.Fatalf("Norm moments: mean=%v var=%v", mean, variance)
	}
}

func TestLognormalSampleMedian(t *testing.T) {
	r := NewRNG(6)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Lognormal(1.0, 0.5)
	}
	e := NewEmpirical(xs)
	med := e.Quantile(0.5)
	if math.Abs(med-math.E) > 0.1 {
		t.Fatalf("Lognormal(1,0.5) median = %v, want ~e", med)
	}
}

func TestParetoSampleBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.ParetoSample(2.0, 1.5)
		if x < 2.0 {
			t.Fatalf("Pareto sample %v below xm", x)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]int, 20)
		for i := range xs {
			xs[i] = i
		}
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		seen := make([]bool, 20)
		for _, v := range xs {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
