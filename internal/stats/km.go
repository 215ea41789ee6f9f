package stats

import "slices"

// KaplanMeier estimates the marginal distribution of an event time from
// right-censored observations: fired holds the observed (uncensored)
// event times, censored the times at which observation stopped without
// the event. It returns the conditional-given-finite quantile table, the
// residual tail mass (the KM survival beyond the last observed event —
// the probability the event never fires within observable horizons), and
// ok=false when there are no uncensored observations at all.
//
// The library uses it for the sub-machine (bottom-level) sojourns of the
// two-level model: every top-level state change right-censors the
// pending sub-machine delay, so fitting on uncensored delays alone would
// bias them short and over-generate HO/TAU when raced against the top
// level.
func KaplanMeier(fired, censored []float64) (q *QuantileTable, tail float64, ok bool) {
	f := slices.Clone(fired)
	c := slices.Clone(censored)
	var scratch []float64
	SortFloats(f, &scratch)
	SortFloats(c, &scratch)
	return KaplanMeierSorted(f, c)
}

// KaplanMeierSorted is KaplanMeier for observations already in ascending
// order (SortFloats' order) on each side, which it reads without
// copying.
func KaplanMeierSorted(f, c []float64) (q *QuantileTable, tail float64, ok bool) {
	if len(f) == 0 {
		return nil, 1, false
	}
	// With each side sorted as plain floats, walk the distinct event
	// times: at time t, everything fired before t and everything censored
	// strictly before t has left the risk set — a unit censored at t was
	// still at risk at t, the standard convention — which is all the
	// estimator needs of the merged (t, event) order.
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
	// Build the conditional-given-finite quantile table by inverting
	// F(t)/fMax over an even probability grid.
	// Always use the full grid: unlike a plain sample table, KM steps
	// carry unequal probability masses, and a coarse grid would misplace
	// them.
	points := DefaultQuantilePoints
	qv := make([]float64, points)
	si := 0
	for k := 0; k < points; k++ {
		p := float64(k) / float64(points-1) * fMax
		for si < len(steps)-1 && steps[si].F < p {
			si++
		}
		qv[k] = steps[si].t
	}
	// Guarantee exact lower/upper endpoints.
	qv[0] = steps[0].t
	qv[points-1] = steps[len(steps)-1].t
	return &QuantileTable{Q: qv}, tail, true
}

// CensoredExpMLE returns the maximum-likelihood exponential rate for
// right-censored data: lambda = (#events) / (total observed time at
// risk). ok is false when the estimate is degenerate.
func CensoredExpMLE(fired, censored []float64) (lambda float64, ok bool) {
	if len(fired) == 0 {
		return 0, false
	}
	var total float64
	for _, t := range fired {
		if t < 0 {
			return 0, false
		}
		total += t
	}
	for _, t := range censored {
		if t < 0 {
			return 0, false
		}
		total += t
	}
	if total <= 0 {
		return 0, false
	}
	return float64(len(fired)) / total, true
}
