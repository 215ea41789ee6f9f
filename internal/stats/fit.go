package stats

import (
	"errors"
	"math"
)

// ErrTooFewSamples is returned by the fitters when the sample is too small
// to estimate the distribution's parameters.
var ErrTooFewSamples = errors.New("stats: too few samples to fit")

// ErrDegenerate is returned when a sample admits no valid MLE (e.g. all
// values identical for a Weibull fit, or non-positive values).
var ErrDegenerate = errors.New("stats: degenerate sample")

// FitExponential returns the maximum-likelihood exponential distribution
// for xs: lambda = 1/mean. This is the "fit a Poisson process" step the
// paper applies per (cluster, hour, device type, event/state).
func FitExponential(xs []float64) (Exponential, error) {
	if len(xs) < 2 {
		return Exponential{}, ErrTooFewSamples
	}
	var sum float64
	for _, x := range xs {
		if x < 0 {
			return Exponential{}, ErrDegenerate
		}
		sum += x
	}
	if sum <= 0 {
		return Exponential{}, ErrDegenerate
	}
	return Exponential{Lambda: float64(len(xs)) / sum}, nil
}

// FitPareto returns the maximum-likelihood Pareto distribution for xs:
// xm = min(xs), alpha = n / sum(ln(x/xm)). Zero values are nudged to the
// smallest positive sample value because ln(0) is undefined; if all
// values are equal the sample is degenerate.
func FitPareto(xs []float64) (Pareto, error) {
	if len(xs) < 2 {
		return Pareto{}, ErrTooFewSamples
	}
	minPos := math.Inf(1)
	for _, x := range xs {
		if x < 0 {
			return Pareto{}, ErrDegenerate
		}
		if x > 0 && x < minPos {
			minPos = x
		}
	}
	if math.IsInf(minPos, 1) {
		return Pareto{}, ErrDegenerate
	}
	xm := minPos
	var logSum float64
	n := 0
	for _, x := range xs {
		if x < xm {
			x = xm
		}
		logSum += math.Log(x / xm)
		n++
	}
	if logSum <= 0 {
		return Pareto{}, ErrDegenerate
	}
	return Pareto{Xm: xm, Alpha: float64(n) / logSum}, nil
}

// FitWeibull returns the maximum-likelihood Weibull distribution for xs,
// solving the profile-likelihood equation for the shape k by Newton's
// method with bisection safeguards:
//
//	g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0
//
// then lambda = (sum(x^k)/n)^(1/k). Non-positive samples are rejected.
func FitWeibull(xs []float64) (Weibull, error) {
	if len(xs) < 3 {
		return Weibull{}, ErrTooFewSamples
	}
	n := float64(len(xs))
	var meanLog float64
	allEqual := true
	for i, x := range xs {
		if x <= 0 {
			return Weibull{}, ErrDegenerate
		}
		meanLog += math.Log(x)
		if i > 0 && x != xs[0] {
			allEqual = false
		}
	}
	if allEqual {
		return Weibull{}, ErrDegenerate
	}
	meanLog /= n

	g := func(k float64) float64 {
		var swl, sw float64 // sum x^k ln x, sum x^k
		for _, x := range xs {
			w := math.Pow(x, k)
			sw += w
			swl += w * math.Log(x)
		}
		return swl/sw - 1/k - meanLog
	}

	// Bracket the root. g is increasing in k; g(k)->-inf as k->0+ and
	// g(k) -> max(ln x) - meanLog > 0 as k->inf.
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 {
		hi *= 2
		if hi > 1e6 {
			return Weibull{}, ErrDegenerate
		}
	}
	// Newton with bisection fallback.
	k := math.Max(lo, math.Min(hi, 1.0))
	for iter := 0; iter < 100; iter++ {
		gk := g(k)
		if math.Abs(gk) < 1e-10 {
			break
		}
		if gk > 0 {
			hi = k
		} else {
			lo = k
		}
		// Numerical derivative for the Newton step.
		h := 1e-6 * math.Max(1, k)
		dg := (g(k+h) - gk) / h
		next := k - gk/dg
		if !(next > lo && next < hi) || math.IsNaN(next) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-k) < 1e-12*math.Max(1, k) {
			k = next
			break
		}
		k = next
	}
	var sw float64
	for _, x := range xs {
		sw += math.Pow(x, k)
	}
	lambda := math.Pow(sw/n, 1/k)
	if !(k > 0) || !(lambda > 0) || math.IsNaN(k) || math.IsNaN(lambda) {
		return Weibull{}, ErrDegenerate
	}
	return Weibull{K: k, Lambda: lambda}, nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance (0 if n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// PopVariance returns the population (n) variance (0 for an empty slice).
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the square root of the unbiased sample variance.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
