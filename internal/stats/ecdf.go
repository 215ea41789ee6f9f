package stats

import (
	"fmt"
	"sort"
)

// MaxYDistance returns the maximum vertical distance between the empirical
// CDFs of two samples — the paper's microscopic fidelity metric ("maximum
// y-distance", §8.1.2). It equals the two-sample K–S statistic.
func MaxYDistance(xs, ys []float64) float64 { return KSTest2(xs, ys).D }

// QuantileTable is a compressed empirical distribution: the quantile
// function tabulated on an even probability grid, with exact minimum and
// maximum. Fitted sojourn-time CDFs are stored in this form so a model for
// hundreds of thousands of UEs does not retain raw sample slices, while
// inverse-transform sampling stays O(1).
type QuantileTable struct {
	// Q holds Quantile(i/(len(Q)-1)) for i = 0..len(Q)-1. len(Q) >= 2.
	Q []float64
}

// DefaultQuantilePoints is the grid resolution used by NewQuantileTable.
// 201 points keep the K–S distance between the table and the raw sample
// below 0.005.
const DefaultQuantilePoints = 201

// NewQuantileTable compresses a sample into a quantile table with the
// default resolution. It panics on an empty sample.
func NewQuantileTable(xs []float64) *QuantileTable {
	return NewQuantileTableN(xs, DefaultQuantilePoints)
}

// NewQuantileTableN compresses a sample into a table with n grid points
// (n >= 2). It panics on an empty sample or n < 2.
func NewQuantileTableN(xs []float64, n int) *QuantileTable {
	return NewEmpirical(xs).QuantileTable(n)
}

// QuantileTable tabulates the sample's quantile function on n evenly
// spaced probabilities (n >= 2, else it panics).
func (e *Empirical) QuantileTable(n int) *QuantileTable {
	if n < 2 {
		panic("stats: quantile table needs at least 2 points")
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = e.Quantile(float64(i) / float64(n-1))
	}
	return &QuantileTable{Q: q}
}

// Valid reports whether the table is structurally sound: at least two
// points, non-decreasing.
func (t *QuantileTable) Valid() bool {
	if t == nil || len(t.Q) < 2 {
		return false
	}
	for i := 1; i < len(t.Q); i++ {
		if t.Q[i] < t.Q[i-1] {
			return false
		}
	}
	return true
}

// Quantile interpolates the tabulated quantile function at p.
func (t *QuantileTable) Quantile(p float64) float64 { return QuantileAt(t.Q, p) }

// QuantileAt interpolates a tabulated quantile function (the Q grid of a
// QuantileTable) at p. It is the allocation-free core of Quantile, split
// out so sampling hot loops can draw from a bare grid without
// constructing a table value; the arithmetic is bit-identical.
func QuantileAt(q []float64, p float64) float64 {
	n := len(q)
	switch {
	case p <= 0:
		return q[0]
	case p >= 1:
		return q[n-1]
	}
	h := p * float64(n-1)
	i := int(h)
	frac := h - float64(i)
	if i+1 >= n {
		return q[n-1]
	}
	return q[i] + frac*(q[i+1]-q[i])
}

// CDF inverts the tabulated quantile function by binary search with linear
// interpolation inside grid cells. Flat regions (repeated values) resolve
// to the upper end, matching right-continuous empirical CDFs.
func (t *QuantileTable) CDF(x float64) float64 {
	n := len(t.Q)
	if x < t.Q[0] {
		return 0
	}
	if x >= t.Q[n-1] {
		return 1
	}
	// Find the last index i with Q[i] <= x.
	i := sort.Search(n, func(j int) bool { return t.Q[j] > x }) - 1
	// Skip forward over a flat run to its end.
	j := i
	for j+1 < n && t.Q[j+1] == t.Q[i] {
		j++
	}
	if t.Q[j] == x || j+1 >= n {
		return float64(j) / float64(n-1)
	}
	frac := (x - t.Q[j]) / (t.Q[j+1] - t.Q[j])
	return (float64(j) + frac) / float64(n-1)
}

// Mean returns the mean of the tabulated distribution (trapezoidal
// integral of the quantile function over [0,1]).
func (t *QuantileTable) Mean() float64 {
	n := len(t.Q)
	var s float64
	for i := 0; i < n-1; i++ {
		s += (t.Q[i] + t.Q[i+1]) / 2
	}
	return s / float64(n-1)
}

func (t *QuantileTable) String() string {
	return fmt.Sprintf("QuantileTable(points=%d, min=%.6g, max=%.6g)",
		len(t.Q), t.Q[0], t.Q[len(t.Q)-1])
}
