package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxYDistanceIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := MaxYDistance(xs, xs); d != 0 {
		t.Fatalf("identical samples distance = %v", d)
	}
}

func TestMaxYDistanceDisjoint(t *testing.T) {
	if d := MaxYDistance([]float64{1, 2}, []float64{10, 20}); d != 1 {
		t.Fatalf("disjoint distance = %v, want 1", d)
	}
}

func TestMaxYDistanceToDist(t *testing.T) {
	xs := sampleN(Exponential{Lambda: 1}, 2000, 11)
	d1 := KSTest(xs, Exponential{Lambda: 1}).D
	d2 := KSTest(xs, Exponential{Lambda: 5}).D
	if d1 >= d2 {
		t.Fatalf("true dist (%v) should be closer than wrong dist (%v)", d1, d2)
	}
}

func TestQuantileTableApproximatesSample(t *testing.T) {
	xs := lognormalN(1, 1, 5000, 12)
	qt := NewQuantileTable(xs)
	if !qt.Valid() {
		t.Fatal("table invalid")
	}
	e := NewEmpirical(xs)
	// Max deviation between table CDF and empirical CDF should be small.
	var maxDiff float64
	for p := 0.0; p <= 1.0; p += 0.001 {
		x := e.Quantile(p)
		diff := math.Abs(qt.CDF(x) - e.CDF(x))
		if diff > maxDiff {
			maxDiff = diff
		}
	}
	if maxDiff > 0.01 {
		t.Fatalf("table-vs-empirical CDF deviation = %v", maxDiff)
	}
	// Exact tails.
	if qt.Quantile(0) != e.Quantile(0) || qt.Quantile(1) != e.Quantile(1) {
		t.Fatal("table does not preserve min/max")
	}
}

func TestQuantileTableRoundTripQuantileCDF(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = r.Float64() * 50
		}
		qt := NewQuantileTableN(xs, 51)
		for p := 0.02; p < 0.99; p += 0.04 {
			x := qt.Quantile(p)
			got := qt.CDF(x)
			if math.Abs(got-p) > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuantileTableConstantSample(t *testing.T) {
	qt := NewQuantileTable([]float64{7, 7, 7, 7})
	if qt.Quantile(0.5) != 7 {
		t.Fatalf("Quantile(0.5) = %v", qt.Quantile(0.5))
	}
	if qt.CDF(6.9) != 0 || qt.CDF(7) != 1 || qt.CDF(8) != 1 {
		t.Fatalf("constant CDF wrong: %v %v %v", qt.CDF(6.9), qt.CDF(7), qt.CDF(8))
	}
	if m := qt.Mean(); m != 7 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestQuantileTableMean(t *testing.T) {
	xs := sampleN(Exponential{Lambda: 0.5}, 20000, 13)
	qt := NewQuantileTable(xs)
	if m := qt.Mean(); math.Abs(m-2)/2 > 0.1 {
		t.Fatalf("Mean = %v, want ~2", m)
	}
}

func TestQuantileTableValidity(t *testing.T) {
	var nilTable *QuantileTable
	if nilTable.Valid() {
		t.Fatal("nil table reported valid")
	}
	if (&QuantileTable{Q: []float64{1}}).Valid() {
		t.Fatal("1-point table reported valid")
	}
	if (&QuantileTable{Q: []float64{2, 1}}).Valid() {
		t.Fatal("decreasing table reported valid")
	}
	if !(&QuantileTable{Q: []float64{1, 1, 2}}).Valid() {
		t.Fatal("valid table rejected")
	}
}

func TestNewQuantileTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQuantileTableN with n<2 did not panic")
		}
	}()
	NewQuantileTableN([]float64{1, 2}, 1)
}

func TestQuantileTableSamplingPreservesDistribution(t *testing.T) {
	// Draw from the table; the draws should be K-S-close to the original.
	src := sampleN(weibullInv{Weibull{K: 0.9, Lambda: 3}}, 5000, 14)
	qt := NewQuantileTable(src)
	r := NewRNG(15)
	ys := make([]float64, 5000)
	for i := range ys {
		ys[i] = qt.Quantile(r.OpenFloat64())
	}
	if d := MaxYDistance(src, ys); d > 0.035 {
		t.Fatalf("resampled distance = %v", d)
	}
}
