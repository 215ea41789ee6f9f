package stats

import (
	"math"

	"cptraffic/internal/cp"
)

// Variance–time analysis (paper §4.2, Fig. 3): the timeline is divided
// into fixed 100 ms bins; for each aggregation scale M seconds, events are
// grouped into M-second windows, the per-window average bin count k_i is
// computed, and the variance of k_i across windows — normalized by the
// squared mean — measures burstiness at that scale. A Poisson process
// yields a straight line of slope -1 in log–log space; long-range
// dependent (bursty) traffic decays more slowly and sits above it.

// VTPoint is one point of a variance–time curve.
type VTPoint struct {
	// ScaleSec is the window length M in seconds.
	ScaleSec float64
	// NormVar is Var(k_i) / Mean(k_i)², the normalized variance of the
	// per-window average bin count. NaN when fewer than two windows fit
	// or the mean is zero.
	NormVar float64
}

// vtScales are the paper's aggregation scales: 1 s to 10³ s.
var vtScales = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// vtBinSec is the paper's base bin width, 100 ms.
const vtBinSec = 0.1

// nanCurve is a curve with no defined point.
func nanCurve() []VTPoint {
	out := make([]VTPoint, len(vtScales))
	for i, m := range vtScales {
		out[i] = VTPoint{ScaleSec: m, NormVar: math.NaN()}
	}
	return out
}

// VarianceTime computes the variance–time curve of a point process
// observed over the window [lo, hi): its event times are binned from lo,
// and events outside the window are ignored. The curve reads only the
// times relative to lo, so shifting the times and the window together
// leaves it unchanged, bit for bit.
func VarianceTime(times []cp.Millis, lo, hi cp.Millis) []VTPoint {
	nBins := int((hi - lo).Seconds() / vtBinSec)
	if nBins <= 0 {
		return nanCurve()
	}
	counts := make([]float64, nBins)
	for _, t := range times {
		if t < lo || t >= hi {
			continue
		}
		b := int((t - lo).Seconds() / vtBinSec)
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}

	out := make([]VTPoint, 0, len(vtScales))
	for _, m := range vtScales {
		binsPerWin := int(m/vtBinSec + 0.5)
		if binsPerWin < 1 {
			binsPerWin = 1
		}
		nWin := nBins / binsPerWin
		if nWin < 2 {
			out = append(out, VTPoint{ScaleSec: m, NormVar: math.NaN()})
			continue
		}
		ks := make([]float64, nWin)
		for w := 0; w < nWin; w++ {
			var s float64
			for b := w * binsPerWin; b < (w+1)*binsPerWin; b++ {
				s += counts[b]
			}
			ks[w] = s / float64(binsPerWin)
		}
		mean := Mean(ks)
		if mean == 0 {
			out = append(out, VTPoint{ScaleSec: m, NormVar: math.NaN()})
			continue
		}
		out = append(out, VTPoint{ScaleSec: m, NormVar: PopVariance(ks) / (mean * mean)})
	}
	return out
}

// PoissonVarianceTime returns the analytic variance–time curve of a
// homogeneous Poisson process with the given event rate (events/second):
// with bin width b and window of m bins, Var(k) = rate*b/m and
// Mean(k) = rate*b, so NormVar = 1/(rate*b*m) — the slope -1 reference
// line of Fig. 3.
func PoissonVarianceTime(rate float64) []VTPoint {
	if rate <= 0 {
		return nanCurve()
	}
	out := make([]VTPoint, len(vtScales))
	for i, m := range vtScales {
		binsPerWin := math.Max(1, math.Round(m/vtBinSec))
		out[i] = VTPoint{ScaleSec: m, NormVar: 1 / (rate * vtBinSec * binsPerWin)}
	}
	return out
}

// VTLogGap returns the mean difference, in log10 space, between the
// observed and reference variance–time curves over scales where both are
// finite — the paper's "difference in the log-scale normalized variance".
// Positive values mean the observation is burstier than the reference.
func VTLogGap(observed, reference []VTPoint) float64 {
	var sum float64
	n := 0
	for i := range observed {
		if i >= len(reference) {
			break
		}
		a, b := observed[i].NormVar, reference[i].NormVar
		if math.IsNaN(a) || math.IsNaN(b) || a <= 0 || b <= 0 {
			continue
		}
		sum += math.Log10(a) - math.Log10(b)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
