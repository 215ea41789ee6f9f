package stats

import (
	"math"
	"testing"
)

func TestHurstVTPoissonIsHalf(t *testing.T) {
	// An exact Poisson variance-time curve has slope -1 -> H = 0.5.
	curve := PoissonVarianceTime(3)
	h := HurstVT(curve)
	if math.Abs(h-0.5) > 1e-9 {
		t.Fatalf("H = %v, want 0.5", h)
	}
}

func TestHurstVTOnSimulatedProcesses(t *testing.T) {
	const horizon = 50000.0
	// Poisson arrivals: H ~ 0.5.
	times := poissonArrivals(2, horizon, 51)
	obs := varianceTime(times, horizon)
	h := HurstVT(obs)
	if math.Abs(h-0.5) > 0.1 {
		t.Fatalf("Poisson H = %v, want ~0.5", h)
	}
	// ON/OFF-modulated arrivals: clearly above 0.5 at these scales.
	r := NewRNG(52)
	var bursty []float64
	t0 := 0.0
	for t0 < horizon {
		on := r.Exp(1.0 / 50)
		end := math.Min(t0+on, horizon)
		tt := t0 + r.Exp(10)
		for tt < end {
			bursty = append(bursty, tt)
			tt += r.Exp(10)
		}
		t0 = end + r.Exp(1.0/500)
	}
	hb := HurstVT(varianceTime(bursty, horizon))
	if hb < 0.65 {
		t.Fatalf("bursty H = %v, want > 0.65", hb)
	}
	if hb <= h {
		t.Fatalf("bursty H (%v) should exceed Poisson H (%v)", hb, h)
	}
}

func TestHurstVTDegenerate(t *testing.T) {
	if !math.IsNaN(HurstVT(nil)) {
		t.Fatal("empty curve should be NaN")
	}
	one := []VTPoint{{ScaleSec: 1, NormVar: 0.5}}
	if !math.IsNaN(HurstVT(one)) {
		t.Fatal("single point should be NaN")
	}
	withNaN := []VTPoint{{1, math.NaN()}, {10, 0.1}, {100, 0.01}}
	if h := HurstVT(withNaN); math.IsNaN(h) {
		t.Fatal("NaN points should be skipped, not fatal")
	}
}

func TestHurstRSWhiteNoiseNearHalf(t *testing.T) {
	r := NewRNG(53)
	series := make([]float64, 8192)
	for i := range series {
		series[i] = r.Norm()
	}
	h := HurstRS(series)
	// R/S is biased upward on short series; accept a generous band
	// around 0.5.
	if h < 0.4 || h > 0.68 {
		t.Fatalf("white-noise H = %v, want ~0.5", h)
	}
}

func TestHurstRSTrendingSeriesHigh(t *testing.T) {
	// A random walk (integrated noise) is strongly persistent: H -> 1.
	r := NewRNG(54)
	series := make([]float64, 8192)
	acc := 0.0
	for i := range series {
		acc += r.Norm()
		series[i] = acc
	}
	h := HurstRS(series)
	if h < 0.85 {
		t.Fatalf("random-walk H = %v, want ~1", h)
	}
}

func TestHurstRSDegenerate(t *testing.T) {
	if !math.IsNaN(HurstRS(nil)) {
		t.Fatal("empty series should be NaN")
	}
	if !math.IsNaN(HurstRS(make([]float64, 10))) {
		t.Fatal("short series should be NaN")
	}
	if !math.IsNaN(HurstRS(make([]float64, 100))) {
		t.Fatal("constant series should be NaN (zero variance)")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := linearFit(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	s, i := linearFit([]float64{2, 2}, []float64{5, 7})
	if s != 0 || i != 6 {
		t.Fatalf("degenerate fit = %v, %v", s, i)
	}
}

func TestCountSeries(t *testing.T) {
	got := CountSeries([]float64{0.1, 0.9, 1.5, 9.9, -1, 11}, 10, 1)
	if len(got) != 10 || got[0] != 2 || got[1] != 1 || got[9] != 1 {
		t.Fatalf("series = %v", got)
	}
	if CountSeries(nil, 0, 1) != nil || CountSeries(nil, 10, 0) != nil {
		t.Fatal("degenerate inputs should be nil")
	}
}
