// Package cluster implements the paper's adaptive clustering scheme
// (§5.3): UEs of one device type within one hour-of-day are recursively
// segregated in a 4-dimensional feature space until every cluster is
// either homogeneous (feature spread below θf in every dimension) or
// small (fewer than θn UEs). The recursive partition forms a quadtree:
// each split cuts the current region into four equal sub-regions along
// the two currently most-spread dimensions.
//
// The four features characterize a UE's traffic through the two dominant
// event types: the number of SRV_REQ events and the standard deviation of
// the CONNECTED sojourn, and the number of S1_CONN_REL events and the
// standard deviation of the IDLE sojourn.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"cptraffic/internal/cp"
)

// NumFeatures is the dimensionality of the clustering feature space.
const NumFeatures = 4

// Feature indices.
const (
	// FSrvReqCount is the number of SRV_REQ events in the interval.
	FSrvReqCount = iota
	// FConnStd is the standard deviation (seconds) of CONNECTED sojourns.
	FConnStd
	// FS1RelCount is the number of S1_CONN_REL events in the interval.
	FS1RelCount
	// FIdleStd is the standard deviation (seconds) of IDLE sojourns.
	FIdleStd
)

// Features is one UE's position in the clustering space.
type Features [NumFeatures]float64

// Point pairs a UE with its features.
type Point struct {
	UE cp.UEID
	F  Features
}

// Options configures the adaptive partition.
type Options struct {
	// ThetaF is the per-dimension similarity threshold: a region whose
	// spread (max-min) is below ThetaF[d] in every dimension d is a final
	// cluster. Zero values default to the paper's θf = 5.
	ThetaF Features
	// ThetaN is the small-cluster threshold: a region with fewer than
	// ThetaN UEs is a final cluster. Zero defaults to the paper's 1000.
	ThetaN int
	// MaxDepth bounds the recursion as a safety net (default 32).
	MaxDepth int
}

func (o Options) withDefaults() Options {
	for d := range o.ThetaF {
		if o.ThetaF[d] <= 0 {
			o.ThetaF[d] = 5
		}
	}
	if o.ThetaN <= 0 {
		o.ThetaN = 1000
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 32
	}
	return o
}

// Cluster is one final region of the partition.
type Cluster struct {
	// ID numbers clusters 0..n-1 in deterministic (depth-first) order.
	ID int
	// UEs lists the member UEs in ascending order.
	UEs []cp.UEID
	// Min and Max bound the members' features.
	Min, Max Features
}

// Size returns the number of member UEs.
func (c *Cluster) Size() int { return len(c.UEs) }

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster %d: %d UEs", c.ID, len(c.UEs))
}

// Partition runs the adaptive quadtree partition over the points and
// returns the final clusters. The result is deterministic for a given
// input ordering-independently: points are sorted by UE id first.
func Partition(points []Point, opt Options) []Cluster {
	opt = opt.withDefaults()
	if len(points) == 0 {
		return nil
	}
	ps := append([]Point(nil), points...)
	// One point per UE, so UE ids never tie.
	slices.SortFunc(ps, func(a, b Point) int { return cmp.Compare(a.UE, b.UE) })

	var out []Cluster
	var recurse func(ps []Point, depth int)
	recurse = func(ps []Point, depth int) {
		lo, hi := bounds(ps)
		if len(ps) < opt.ThetaN || depth >= opt.MaxDepth || similar(lo, hi, opt.ThetaF) {
			out = append(out, finalize(len(out), ps, lo, hi))
			return
		}
		// Split along the two most-spread dimensions (relative to their
		// thresholds), cutting each at the midpoint: four quadrants.
		d1, d2 := splitDims(lo, hi, opt.ThetaF)
		m1 := (lo[d1] + hi[d1]) / 2
		m2 := (lo[d2] + hi[d2]) / 2
		var quads [4][]Point
		for _, p := range ps {
			q := 0
			if p.F[d1] > m1 {
				q |= 1
			}
			if p.F[d2] > m2 {
				q |= 2
			}
			quads[q] = append(quads[q], p)
		}
		// A degenerate split (everything in one quadrant) cannot happen
		// when the spread exceeds the threshold in d1 or d2, because the
		// midpoint strictly separates min from max; but guard anyway.
		nonEmpty := 0
		for _, q := range quads {
			if len(q) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty <= 1 {
			out = append(out, finalize(len(out), ps, lo, hi))
			return
		}
		for _, q := range quads {
			if len(q) > 0 {
				recurse(q, depth+1)
			}
		}
	}
	recurse(ps, 0)
	return out
}

func bounds(ps []Point) (lo, hi Features) {
	lo, hi = ps[0].F, ps[0].F
	for _, p := range ps[1:] {
		for d := 0; d < NumFeatures; d++ {
			if p.F[d] < lo[d] {
				lo[d] = p.F[d]
			}
			if p.F[d] > hi[d] {
				hi[d] = p.F[d]
			}
		}
	}
	return lo, hi
}

func similar(lo, hi, theta Features) bool {
	for d := 0; d < NumFeatures; d++ {
		if hi[d]-lo[d] >= theta[d] {
			return false
		}
	}
	return true
}

// splitDims returns the two dimensions with the largest spread relative
// to their thresholds.
func splitDims(lo, hi, theta Features) (int, int) {
	type ds struct {
		d int
		s float64
	}
	var all [NumFeatures]ds
	for d := 0; d < NumFeatures; d++ {
		all[d] = ds{d, (hi[d] - lo[d]) / theta[d]}
	}
	s := all[:]
	// Widest spread first (spreads are finite: the features are counts
	// and standard deviations); the dimension index breaks ties and is
	// unique.
	slices.SortFunc(s, func(a, b ds) int {
		return cmp.Or(cmp.Compare(b.s, a.s), cmp.Compare(a.d, b.d))
	})
	return s[0].d, s[1].d
}

func finalize(id int, ps []Point, lo, hi Features) Cluster {
	ues := make([]cp.UEID, len(ps))
	for i, p := range ps {
		ues[i] = p.UE
	}
	slices.Sort(ues) // plain values: equal ids are indistinguishable
	return Cluster{ID: id, UEs: ues, Min: lo, Max: hi}
}

// Assignment maps every UE to its cluster ID.
func Assignment(clusters []Cluster) map[cp.UEID]int {
	out := make(map[cp.UEID]int)
	for _, c := range clusters {
		for _, ue := range c.UEs {
			out[ue] = c.ID
		}
	}
	return out
}

// Weights returns each cluster's share of the total UE population, in
// cluster-ID order. The traffic generator assigns synthetic UEs to
// clusters with these probabilities (§7).
func Weights(clusters []Cluster) []float64 {
	total := 0
	for _, c := range clusters {
		total += len(c.UEs)
	}
	out := make([]float64, len(clusters))
	if total == 0 {
		return out
	}
	for i, c := range clusters {
		out[i] = float64(len(c.UEs)) / float64(total)
	}
	return out
}
