package stats

import (
	"math"
	"slices"
	"testing"

	"cptraffic/internal/cp"
)

// poissonArrivals generates event times of a homogeneous Poisson process.
func poissonArrivals(rate, horizon float64, seed uint64) []float64 {
	r := NewRNG(seed)
	var ts []float64
	t := r.Exp(rate)
	for t < horizon {
		ts = append(ts, t)
		t += r.Exp(rate)
	}
	return ts
}

// millis rounds event times in seconds to milliseconds.
func millis(ts ...float64) []cp.Millis {
	out := make([]cp.Millis, len(ts))
	for i, t := range ts {
		out[i] = cp.MillisFromSeconds(t)
	}
	return out
}

// varianceTime is VarianceTime of times in seconds over [0, horizon).
func varianceTime(ts []float64, horizon float64) []VTPoint {
	return VarianceTime(millis(ts...), 0, cp.MillisFromSeconds(horizon))
}

// atScales keeps the points of curve at the given scales.
func atScales(curve []VTPoint, scales ...float64) []VTPoint {
	var out []VTPoint
	for _, p := range curve {
		if slices.Contains(scales, p.ScaleSec) {
			out = append(out, p)
		}
	}
	if len(out) != len(scales) {
		panic("atScales: a scale the curve does not have")
	}
	return out
}

func TestVarianceTimePoissonMatchesAnalytic(t *testing.T) {
	const rate, horizon = 5.0, 20000.0
	times := poissonArrivals(rate, horizon, 21)
	obs := atScales(varianceTime(times, horizon), 1, 10, 100)
	ref := atScales(PoissonVarianceTime(rate), 1, 10, 100)
	for i := range obs {
		if math.IsNaN(obs[i].NormVar) {
			t.Fatalf("NaN at scale %v", obs[i].ScaleSec)
		}
		logGap := math.Abs(math.Log10(obs[i].NormVar) - math.Log10(ref[i].NormVar))
		if logGap > 0.15 {
			t.Fatalf("scale %v: obs %v vs ref %v (log gap %v)",
				obs[i].ScaleSec, obs[i].NormVar, ref[i].NormVar, logGap)
		}
	}
}

func TestVarianceTimeBurstyExceedsPoisson(t *testing.T) {
	// An ON/OFF (Markov-modulated) process is burstier than Poisson at
	// scales comparable to the ON/OFF period.
	r := NewRNG(22)
	const horizon = 20000.0
	var times []float64
	t0 := 0.0
	for t0 < horizon {
		// ON for ~30s at rate 20/s, then OFF for ~300s.
		on := r.Exp(1.0 / 30)
		end := math.Min(t0+on, horizon)
		tt := t0 + r.Exp(20)
		for tt < end {
			times = append(times, tt)
			tt += r.Exp(20)
		}
		t0 = end + r.Exp(1.0/300)
	}
	rate := float64(len(times)) / horizon
	obs := atScales(varianceTime(times, horizon), 10, 100)
	ref := atScales(PoissonVarianceTime(rate), 10, 100)
	gap := VTLogGap(obs, ref)
	if math.IsNaN(gap) || gap < 0.5 {
		t.Fatalf("bursty process log gap = %v, want > 0.5", gap)
	}
}

func TestVarianceTimeEdgeCases(t *testing.T) {
	// An empty window -> all NaN.
	for _, pts := range [][]VTPoint{VarianceTime(nil, 0, 0), VarianceTime(millis(1), 5000, 4000)} {
		for _, p := range pts {
			if !math.IsNaN(p.NormVar) {
				t.Fatalf("empty window produced %v", p)
			}
		}
	}
	// No events -> zero means -> NaN.
	for _, p := range varianceTime(nil, 100) {
		if !math.IsNaN(p.NormVar) {
			t.Fatalf("empty process produced %v", p)
		}
	}
	// Scale too large for the window -> NaN.
	if p := atScales(varianceTime([]float64{1, 2}, 10), 10); !math.IsNaN(p[0].NormVar) {
		t.Fatal("single-window scale should be NaN")
	}
	// Events outside the window are ignored.
	a := VarianceTime(millis(1, 2, 3), 0, 10*cp.Second)
	b := VarianceTime(millis(1, 2, 3, -5, 11), 0, 10*cp.Second)
	c := VarianceTime(millis(5, 11, 12, 13, 20), 10*cp.Second, 20*cp.Second)
	if a[0].NormVar != b[0].NormVar || a[0].NormVar != c[0].NormVar {
		t.Fatal("out-of-window events affected the curve")
	}
}

// TestVarianceTimeShiftInvariant: the curve of a process shifted with
// its window by whole hours is the unshifted curve, bit for bit, with
// every event on a 100 ms bin edge, where rounding would show first.
func TestVarianceTimeShiftInvariant(t *testing.T) {
	r := NewRNG(23)
	times := make([]cp.Millis, 20000)
	for i := range times {
		times[i] = cp.Millis(r.Intn(6*3600*10)) * 100
	}
	want := VarianceTime(times, 0, 6*cp.Hour)
	for _, shift := range []cp.Millis{cp.Hour, 18 * cp.Hour, 30 * cp.Day} {
		moved := make([]cp.Millis, len(times))
		for i, tm := range times {
			moved[i] = tm + shift
		}
		got := VarianceTime(moved, shift, shift+6*cp.Hour)
		for i := range want {
			if math.Float64bits(got[i].NormVar) != math.Float64bits(want[i].NormVar) {
				t.Fatalf("shift %v, scale %v s: %v, unshifted %v", shift, want[i].ScaleSec, got[i].NormVar, want[i].NormVar)
			}
		}
	}
}

func TestPoissonVarianceTimeShape(t *testing.T) {
	pts := atScales(PoissonVarianceTime(2), 1, 10, 100)
	// Slope -1 in log-log: each 10x scale divides NormVar by 10.
	r1 := pts[0].NormVar / pts[1].NormVar
	r2 := pts[1].NormVar / pts[2].NormVar
	if math.Abs(r1-10) > 1e-9 || math.Abs(r2-10) > 1e-9 {
		t.Fatalf("ratios %v %v, want 10", r1, r2)
	}
	for _, p := range PoissonVarianceTime(0) {
		if !math.IsNaN(p.NormVar) {
			t.Fatal("rate 0 should be NaN")
		}
	}
}

func TestVTLogGap(t *testing.T) {
	obs := []VTPoint{{1, 10}, {10, 1}}
	ref := []VTPoint{{1, 1}, {10, 0.1}}
	if g := VTLogGap(obs, ref); math.Abs(g-1) > 1e-12 {
		t.Fatalf("gap = %v, want 1", g)
	}
	if !math.IsNaN(VTLogGap(nil, nil)) {
		t.Fatal("empty gap should be NaN")
	}
	withNaN := []VTPoint{{1, math.NaN()}, {10, 1}}
	if g := VTLogGap(withNaN, ref); math.Abs(g-1) > 1e-12 {
		t.Fatalf("NaN handling wrong: %v", g)
	}
}
