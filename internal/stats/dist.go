package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dist is a continuous probability distribution over non-negative reals.
// Every model distribution in the library satisfies it.
type Dist interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns E[X] (may be +Inf, e.g. Pareto with alpha <= 1).
	Mean() float64
	// String describes the distribution and its parameters.
	String() string
}

// Exponential is the exponential distribution with rate Lambda — the
// inter-arrival law of a Poisson process, the paper's principal strawman.
type Exponential struct {
	Lambda float64
}

// CDF returns 1 - exp(-lambda*x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Lambda * x)
}

// Quantile returns -ln(1-p)/lambda.
func (e Exponential) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return -math.Log1p(-p) / e.Lambda
}

// Mean returns 1/lambda.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

func (e Exponential) String() string { return fmt.Sprintf("Exponential(λ=%.6g)", e.Lambda) }

// Pareto is the Pareto Type I distribution with scale Xm (minimum value)
// and shape Alpha.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// CDF returns 1 - (xm/x)^alpha for x >= xm, else 0.
func (p Pareto) CDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Mean returns alpha*xm/(alpha-1) for alpha > 1, +Inf otherwise.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(xm=%.6g, α=%.6g)", p.Xm, p.Alpha) }

// Weibull is the Weibull distribution with shape K and scale Lambda.
type Weibull struct {
	K      float64
	Lambda float64
}

// CDF returns 1 - exp(-(x/lambda)^k).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Lambda, w.K))
}

// Mean returns lambda * Gamma(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

func (w Weibull) String() string { return fmt.Sprintf("Weibull(k=%.6g, λ=%.6g)", w.K, w.Lambda) }

// Empirical is the empirical distribution of a sample, in the spirit of
// the Tcplib library: CDF steps through the sorted sample; Quantile
// interpolates linearly between order statistics so synthetic draws are
// not restricted to observed values.
type Empirical struct {
	sorted []float64
}

// NewEmpirical builds an empirical distribution from xs (which it copies
// and sorts). It panics on an empty sample.
func NewEmpirical(xs []float64) *Empirical {
	s := slices.Clone(xs)
	slices.Sort(s)
	return EmpiricalOfSorted(s)
}

// EmpiricalOfSorted is NewEmpirical for a sample already in ascending
// order, which it keeps instead of copying. It
// panics on an empty sample.
func EmpiricalOfSorted(sorted []float64) *Empirical {
	if len(sorted) == 0 {
		panic("stats: empirical distribution of empty sample")
	}
	return &Empirical{sorted: sorted}
}

// Values returns the sorted sample (shared slice; do not modify).
func (e *Empirical) Values() []float64 { return e.sorted }

// CDF returns the fraction of sample values <= x.
func (e *Empirical) CDF(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile interpolates between order statistics using the standard
// (type 7) definition; Quantile(0) and Quantile(1) are the sample min and
// max.
func (e *Empirical) Quantile(p float64) float64 {
	n := len(e.sorted)
	switch {
	case p <= 0:
		return e.sorted[0]
	case p >= 1:
		return e.sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(h)
	frac := h - float64(i)
	if i+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[i] + frac*(e.sorted[i+1]-e.sorted[i])
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 {
	var s float64
	for _, x := range e.sorted {
		s += x
	}
	return s / float64(len(e.sorted))
}

func (e *Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, min=%.6g, max=%.6g)",
		len(e.sorted), e.sorted[0], e.sorted[len(e.sorted)-1])
}
