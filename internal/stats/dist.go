package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a continuous probability distribution over non-negative reals.
// Every model distribution in the library satisfies it; inverse-transform
// sampling via Quantile is how the generators draw sojourn times.
type Dist interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns inf{x : CDF(x) >= p} for p in [0,1].
	Quantile(p float64) float64
	// Mean returns E[X] (may be +Inf, e.g. Pareto with alpha <= 1).
	Mean() float64
	// String describes the distribution and its parameters.
	String() string
}

// Sample draws one value from d using inverse-transform sampling.
func Sample(d Dist, rng *RNG) float64 { return d.Quantile(rng.OpenFloat64()) }

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

// Quantile returns xm / (1-q)^(1/alpha).
func (p Pareto) Quantile(q float64) float64 {
	switch {
	case q <= 0:
		return p.Xm
	case q >= 1:
		return math.Inf(1)
	}
	return p.Xm / math.Pow(1-q, 1/p.Alpha)
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

// Quantile returns lambda * (-ln(1-p))^(1/k).
func (w Weibull) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return w.Lambda * math.Pow(-math.Log1p(-p), 1/w.K)
}

// Mean returns lambda * Gamma(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

func (w Weibull) String() string { return fmt.Sprintf("Weibull(k=%.6g, λ=%.6g)", w.K, w.Lambda) }

// Lognormal is the log-normal distribution: ln X ~ N(Mu, Sigma²).
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// CDF returns Phi((ln x - mu)/sigma).
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return normCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Quantile returns exp(mu + sigma * Phi^-1(p)).
func (l Lognormal) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return math.Exp(l.Mu + l.Sigma*NormQuantile(p))
}

// Mean returns exp(mu + sigma²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l Lognormal) String() string { return fmt.Sprintf("Lognormal(μ=%.6g, σ=%.6g)", l.Mu, l.Sigma) }

// normCDF is the standard normal CDF via the complementary error function.
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// NormQuantile is the standard normal inverse CDF (Acklam's rational
// approximation, relative error below 1.15e-9 — ample for sampling and
// fitting).
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

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
	s := append([]float64(nil), xs...)
	var scratch []float64
	SortFloats(s, &scratch)
	return EmpiricalOfSorted(s)
}

// EmpiricalOfSorted is NewEmpirical for a sample already in ascending
// order (SortFloats' order), which it keeps instead of copying. It
// panics on an empty sample.
func EmpiricalOfSorted(sorted []float64) *Empirical {
	if len(sorted) == 0 {
		panic("stats: empirical distribution of empty sample")
	}
	return &Empirical{sorted: sorted}
}

// N returns the sample size.
func (e *Empirical) N() int { return len(e.sorted) }

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
