package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// checkDistInvariants verifies CDF monotonicity, range, and that Quantile
// inverts CDF on a probability grid.
func checkDistInvariants(t *testing.T, d Dist, probe []float64) {
	t.Helper()
	prev := -1.0
	for _, x := range probe {
		f := d.CDF(x)
		if f < 0 || f > 1 {
			t.Fatalf("%s: CDF(%v) = %v out of [0,1]", d, x, f)
		}
		if f < prev-1e-12 {
			t.Fatalf("%s: CDF not monotone at %v", d, x)
		}
		prev = f
	}
	for p := 0.01; p < 1; p += 0.07 {
		x := d.Quantile(p)
		f := d.CDF(x)
		if math.Abs(f-p) > 1e-6 {
			t.Fatalf("%s: CDF(Quantile(%v)) = %v", d, p, f)
		}
	}
}

func TestExponentialBasics(t *testing.T) {
	e := Exponential{Lambda: 2}
	checkDistInvariants(t, e, []float64{-1, 0, 0.1, 0.5, 1, 5, 100})
	if m := e.Mean(); math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
	if e.CDF(-5) != 0 {
		t.Fatal("CDF of negative must be 0")
	}
	if e.Quantile(0) != 0 || !math.IsInf(e.Quantile(1), 1) {
		t.Fatal("Quantile edge cases wrong")
	}
	// Median = ln2 / lambda.
	if q := e.Quantile(0.5); math.Abs(q-math.Ln2/2) > 1e-12 {
		t.Fatalf("median = %v", q)
	}
}

func TestParetoBasics(t *testing.T) {
	p := Pareto{Xm: 2, Alpha: 3}
	checkDistInvariants(t, p, []float64{0, 1, 2, 2.5, 4, 100})
	if p.CDF(1.999) != 0 {
		t.Fatal("CDF below xm must be 0")
	}
	if m := p.Mean(); math.Abs(m-3) > 1e-12 {
		t.Fatalf("Mean = %v, want 3", m)
	}
	if !math.IsInf((Pareto{Xm: 1, Alpha: 0.9}).Mean(), 1) {
		t.Fatal("heavy Pareto mean should be +Inf")
	}
	if q := p.Quantile(0); q != 2 {
		t.Fatalf("Quantile(0) = %v, want xm", q)
	}
}

func TestWeibullBasics(t *testing.T) {
	w := Weibull{K: 1.5, Lambda: 3}
	checkDistInvariants(t, w, []float64{-1, 0, 0.5, 1, 3, 10, 50})
	// k=1 degenerates to exponential with rate 1/lambda.
	w1 := Weibull{K: 1, Lambda: 2}
	e := Exponential{Lambda: 0.5}
	for _, x := range []float64{0.1, 1, 3, 7} {
		if math.Abs(w1.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Fatalf("Weibull(k=1) != Exponential at %v", x)
		}
	}
	if m := w1.Mean(); math.Abs(m-2) > 1e-9 {
		t.Fatalf("Weibull(1,2) mean = %v, want 2", m)
	}
}

func TestLognormalBasics(t *testing.T) {
	l := Lognormal{Mu: 0, Sigma: 1}
	checkDistInvariants(t, l, []float64{-1, 0, 0.1, 0.5, 1, 2, 10, 100})
	// Median = exp(mu).
	if q := l.Quantile(0.5); math.Abs(q-1) > 1e-6 {
		t.Fatalf("median = %v, want 1", q)
	}
	if m := l.Mean(); math.Abs(m-math.Exp(0.5)) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	if l.CDF(0) != 0 || l.CDF(-1) != 0 {
		t.Fatal("CDF of non-positive must be 0")
	}
}

func TestNormQuantileAccuracy(t *testing.T) {
	// Check against known values.
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.9772498680518208, 2},
		{0.158655253931457, -1},
		{0.999, 3.090232306167813},
		{0.001, -3.090232306167813},
	}
	for _, c := range cases {
		if got := NormQuantile(c.p); math.Abs(got-c.z) > 1e-7 {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.p, got, c.z)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile edges wrong")
	}
}

func TestNormQuantileInvertsNormCDF(t *testing.T) {
	for p := 0.001; p < 1; p += 0.013 {
		z := NormQuantile(p)
		if got := normCDF(z); math.Abs(got-p) > 1e-8 {
			t.Fatalf("normCDF(NormQuantile(%v)) = %v", p, got)
		}
	}
}

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2, 2, 5})
	if len(e.Values()) != 5 {
		t.Fatalf("%d values", len(e.Values()))
	}
	if e.CDF(0) != 0 || e.CDF(1) != 0.2 || e.CDF(2) != 0.6 || e.CDF(5) != 1 || e.CDF(9) != 1 {
		t.Fatalf("CDF values wrong: %v %v %v %v",
			e.CDF(1), e.CDF(2), e.CDF(5), e.CDF(9))
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 5 {
		t.Fatal("Quantile edges wrong")
	}
	if q := e.Quantile(0.5); q != 2 {
		t.Fatalf("median = %v, want 2", q)
	}
	if m := e.Mean(); math.Abs(m-2.6) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
}

func TestEmpiricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEmpirical(nil) did not panic")
		}
	}()
	NewEmpirical(nil)
}

func TestEmpiricalQuantileMonotone(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		m := int(n%50) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		e := NewEmpirical(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0001; p += 0.05 {
			q := e.Quantile(p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	// Sampling via inverse transform should pass a K-S test against the
	// source distribution.
	r := NewRNG(99)
	d := Weibull{K: 0.7, Lambda: 5}
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = Sample(d, r)
	}
	res := KSTest(xs, d)
	if res.Reject(0.01) {
		t.Fatalf("samples from Weibull rejected against itself: D=%v p=%v", res.D, res.P)
	}
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{
		Exponential{1}, Pareto{1, 2}, Weibull{1, 2}, Lognormal{0, 1},
		NewEmpirical([]float64{1, 2}),
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

// Sample draws one value from d using inverse-transform sampling.
func Sample(d Dist, rng *RNG) float64 { return d.Quantile(rng.OpenFloat64()) }
