package stats

import (
	"math"
	"testing"
)

func sampleN(d invertible, n int, seed uint64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Sample(d, r)
	}
	return xs
}

// lognormalN draws n log-normal values, ln X ~ N(mu, sigma²).
func lognormalN(mu, sigma float64, n int, seed uint64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Lognormal(mu, sigma)
	}
	return xs
}

func TestFitExponentialRecovers(t *testing.T) {
	truth := Exponential{Lambda: 3.5}
	xs := sampleN(truth, 20000, 1)
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-truth.Lambda)/truth.Lambda > 0.03 {
		t.Fatalf("lambda = %v, want ~%v", fit.Lambda, truth.Lambda)
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential([]float64{1}); err != ErrTooFewSamples {
		t.Fatalf("want ErrTooFewSamples, got %v", err)
	}
	if _, err := FitExponential([]float64{0, 0}); err != ErrDegenerate {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	if _, err := FitExponential([]float64{-1, 2}); err != ErrDegenerate {
		t.Fatalf("negative sample accepted: %v", err)
	}
}

func TestFitParetoRecovers(t *testing.T) {
	truth := Pareto{Xm: 2, Alpha: 2.5}
	xs := sampleN(paretoInv{truth}, 20000, 2)
	fit, err := FitPareto(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Xm-2) > 0.01 {
		t.Fatalf("xm = %v, want ~2", fit.Xm)
	}
	if math.Abs(fit.Alpha-2.5)/2.5 > 0.05 {
		t.Fatalf("alpha = %v, want ~2.5", fit.Alpha)
	}
}

func TestFitParetoHandlesZeros(t *testing.T) {
	fit, err := FitPareto([]float64{0, 1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Xm != 1 {
		t.Fatalf("xm = %v, want smallest positive = 1", fit.Xm)
	}
}

func TestFitParetoErrors(t *testing.T) {
	if _, err := FitPareto([]float64{5}); err != ErrTooFewSamples {
		t.Fatal("short sample accepted")
	}
	if _, err := FitPareto([]float64{0, 0, 0}); err != ErrDegenerate {
		t.Fatal("all-zero sample accepted")
	}
	if _, err := FitPareto([]float64{3, 3, 3}); err != ErrDegenerate {
		t.Fatal("constant sample accepted")
	}
	if _, err := FitPareto([]float64{-1, 1}); err != ErrDegenerate {
		t.Fatal("negative sample accepted")
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	for _, truth := range []Weibull{
		{K: 0.6, Lambda: 10},
		{K: 1.0, Lambda: 2},
		{K: 2.3, Lambda: 0.5},
	} {
		xs := sampleN(weibullInv{truth}, 20000, 3)
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatalf("%v: %v", truth, err)
		}
		if math.Abs(fit.K-truth.K)/truth.K > 0.05 {
			t.Fatalf("%v: k = %v", truth, fit.K)
		}
		if math.Abs(fit.Lambda-truth.Lambda)/truth.Lambda > 0.05 {
			t.Fatalf("%v: lambda = %v", truth, fit.Lambda)
		}
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull([]float64{1, 2}); err != ErrTooFewSamples {
		t.Fatal("short sample accepted")
	}
	if _, err := FitWeibull([]float64{1, 0, 2}); err != ErrDegenerate {
		t.Fatal("zero sample accepted")
	}
	if _, err := FitWeibull([]float64{4, 4, 4, 4}); err != ErrDegenerate {
		t.Fatal("constant sample accepted")
	}
}

func TestMomentHelpers(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if v := PopVariance(xs); v != 4 {
		t.Fatalf("PopVariance = %v", v)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", v)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || PopVariance(nil) != 0 {
		t.Fatal("empty-slice moments should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-sample variance should be 0")
	}
}
