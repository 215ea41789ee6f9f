package stats

import (
	"math"
	"testing"
)

func TestKSTestAcceptsTrueDistribution(t *testing.T) {
	truth := Exponential{Lambda: 1.5}
	rejections := 0
	const trials = 40
	for s := uint64(0); s < trials; s++ {
		xs := sampleN(truth, 500, 100+s)
		if KSTest(xs, truth).Reject(0.05) {
			rejections++
		}
	}
	// Expect ~5% rejections; allow a generous margin.
	if rejections > 8 {
		t.Fatalf("K-S rejected the true distribution %d/%d times", rejections, trials)
	}
}

func TestKSTestRejectsWrongDistribution(t *testing.T) {
	// Lognormal samples vs a fitted exponential: must reject nearly always.
	rejections := 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		xs := lognormalN(0, 1.5, 500, 200+s)
		fit, err := FitExponential(xs)
		if err != nil {
			t.Fatal(err)
		}
		if KSTest(xs, fit).Reject(0.05) {
			rejections++
		}
	}
	if rejections < trials-1 {
		t.Fatalf("K-S failed to reject lognormal-vs-exponential: %d/%d", rejections, trials)
	}
}

func TestKSStatisticKnownValue(t *testing.T) {
	// Uniform sample {0.1,...,0.9} against U(0,1)-as-CDF: use Empirical of
	// a dense uniform grid as reference via a custom Dist.
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	d := uniform01{}
	res := KSTest(xs, d)
	// D+ = max(i/n - x_i) at i=9: 1.0-0.9 = 0.1... compute: i/n - x = i/9 - i/10
	// max at i=9: 1 - 0.9 = 0.1; D- = x_i - (i-1)/n = i/10 - (i-1)/9, max at
	// i=1: 0.1. So D = 0.1.
	if math.Abs(res.D-0.1) > 1e-12 {
		t.Fatalf("D = %v, want 0.1", res.D)
	}
}

type uniform01 struct{}

func (uniform01) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
func (uniform01) Quantile(p float64) float64 { return p }
func (uniform01) Mean() float64              { return 0.5 }
func (uniform01) String() string             { return "U(0,1)" }

func TestKSTestEmpty(t *testing.T) {
	res := KSTest(nil, Exponential{Lambda: 1})
	if res.D != 0 || res.P != 1 {
		t.Fatalf("empty K-S = %+v", res)
	}
}

func TestKSTest2SameDistribution(t *testing.T) {
	truth := weibullInv{Weibull{K: 0.8, Lambda: 4}}
	rejections := 0
	const trials = 30
	for s := uint64(0); s < trials; s++ {
		xs := sampleN(truth, 400, 300+s)
		ys := sampleN(truth, 400, 900+s)
		if KSTest2(xs, ys).Reject(0.05) {
			rejections++
		}
	}
	if rejections > 6 {
		t.Fatalf("two-sample K-S rejected identical distributions %d/%d", rejections, trials)
	}
}

func TestKSTest2DifferentDistributions(t *testing.T) {
	xs := sampleN(Exponential{Lambda: 1}, 800, 1)
	ys := sampleN(Exponential{Lambda: 3}, 800, 2)
	if !KSTest2(xs, ys).Reject(0.01) {
		t.Fatal("two-sample K-S failed to distinguish rate 1 from rate 3")
	}
}

func TestKSTest2KnownStatistic(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 11, 12, 13}
	res := KSTest2(xs, ys)
	if res.D != 1 {
		t.Fatalf("disjoint samples D = %v, want 1", res.D)
	}
	if res2 := KSTest2(nil, ys); res2.D != 0 || res2.P != 1 {
		t.Fatalf("empty two-sample = %+v", res2)
	}
}

func TestKSTest2TiesHandled(t *testing.T) {
	xs := []float64{1, 1, 1, 2}
	ys := []float64{1, 1, 2, 2}
	res := KSTest2(xs, ys)
	// ECDF_x(1)=0.75, ECDF_y(1)=0.5 -> D = 0.25.
	if math.Abs(res.D-0.25) > 1e-12 {
		t.Fatalf("D = %v, want 0.25", res.D)
	}
}

func TestKSTest2AsymmetricTies(t *testing.T) {
	// Tie runs of unequal length across samples: both ECDFs are the
	// point mass at 5, so D must be exactly 0 (a mid-run comparison
	// would report 0.25).
	if res := KSTest2([]float64{5, 5}, []float64{5, 5, 5, 5}); res.D != 0 {
		t.Fatalf("constant samples D = %v, want 0", res.D)
	}
	// Shared atom at 1 with different masses plus disjoint tails:
	// ECDF_x(1)=2/3 vs ECDF_y(1)=1/4 -> D = 5/12 at x=1.
	xs := []float64{1, 1, 9}
	ys := []float64{1, 2, 3, 4}
	if res := KSTest2(xs, ys); math.Abs(res.D-5.0/12) > 1e-12 {
		t.Fatalf("D = %v, want %v", res.D, 5.0/12)
	}
}

func TestKolmogorovQ(t *testing.T) {
	// Known values of the Kolmogorov survival function.
	cases := []struct{ lambda, q float64 }{
		{0.5, 0.9639452436648751},
		{1.0, 0.26999967168735793},
		{1.36, 0.04948587675537788}, // ~5% critical point
		{2.0, 0.0006709252558037},
	}
	for _, c := range cases {
		if got := kolmogorovQ(c.lambda); math.Abs(got-c.q) > 1e-6 {
			t.Errorf("Q(%v) = %v, want %v", c.lambda, got, c.q)
		}
	}
	if kolmogorovQ(0) != 1 {
		t.Error("Q(0) must be 1")
	}
	if q := kolmogorovQ(50); q != 0 {
		t.Errorf("Q(50) = %v, want 0", q)
	}
}

func TestADTestAcceptsExponential(t *testing.T) {
	rejections := 0
	const trials = 40
	for s := uint64(0); s < trials; s++ {
		xs := sampleN(Exponential{Lambda: 2}, 300, 400+s)
		res, err := ADTestExponential(xs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.05) {
			rejections++
		}
	}
	if rejections > 8 {
		t.Fatalf("A-D rejected exponential data %d/%d times", rejections, trials)
	}
}

func TestADTestRejectsHeavyTails(t *testing.T) {
	rejections := 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		xs := lognormalN(0, 1.5, 300, 500+s)
		res, err := ADTestExponential(xs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.05) {
			rejections++
		}
	}
	if rejections < trials-1 {
		t.Fatalf("A-D failed to reject lognormal data: %d/%d", rejections, trials)
	}
}

func TestADTestErrors(t *testing.T) {
	if _, err := ADTestExponential([]float64{1}); err == nil {
		t.Fatal("short sample accepted")
	}
	if _, err := ADTestExponential([]float64{0, 0}); err == nil {
		t.Fatal("degenerate sample accepted")
	}
}

func TestADRejectUsesClosestLevel(t *testing.T) {
	r := ADResult{A2Star: 1.5}
	if !r.Reject(0.05) { // critical 1.341
		t.Fatal("1.5 should reject at 5%")
	}
	if r.Reject(0.01) { // critical 1.957
		t.Fatal("1.5 should not reject at 1%")
	}
	r2 := ADResult{A2Star: 1.0}
	if r2.Reject(0.05) {
		t.Fatal("1.0 should not reject at 5%")
	}
}
