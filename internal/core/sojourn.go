// Package core implements the paper's primary contribution: the two-level
// hierarchical state-machine-based Semi-Markov traffic model for per-UE
// control-plane traffic, its fitting pipeline, and the trace generator.
//
// A fitted ModelSet holds, for every (device type, hour-of-day, UE
// cluster) combination, a semi-Markov parameterization of the top-level
// EMM–ECM chain and of the bottom-level sub-machine chains (Fig. 5), plus
// a first-event model (§5.4). The generator (§7) runs one per-UE process
// per synthetic UE: the two levels race — each keeps its own timer, and a
// top-level transition drops the bottom level's pending event and
// re-enters the new state's sub-machine.
//
// The same structures express the paper's comparison methods (Table 3):
// the Base and V1 methods use the flat EMM–ECM machine with HO and TAU as
// free-running Poisson processes, and exponential (fitted-Poisson)
// sojourns; V2 uses the two-level machine with exponential sojourns; the
// full method uses the two-level machine with empirical CDF sojourns.
package core

import (
	"fmt"

	"cptraffic/internal/stats"
)

// Sojourn distribution kinds.
const (
	// SojournTable is an empirical CDF stored as a quantile table — the
	// paper's choice ("CDF" column of Table 3).
	SojournTable = "table"
	// SojournExp is an exponential distribution (fitted Poisson process).
	SojournExp = "exp"
	// SojournConst is a degenerate point mass, used when a transition was
	// observed with a single distinct duration.
	SojournConst = "const"
)

// SojournModel is the serializable distribution of the time (seconds) a
// UE stays in a state before a particular transition fires.
type SojournModel struct {
	Kind   string    `json:"kind"`
	Q      []float64 `json:"q,omitempty"`      // quantile grid for SojournTable
	Lambda float64   `json:"lambda,omitempty"` // rate for SojournExp
	Value  float64   `json:"value,omitempty"`  // point mass for SojournConst
}

// Dist returns the distribution view of the model (for tests and
// analysis). SojournConst is represented as a two-point table.
func (s SojournModel) Dist() stats.Dist {
	switch s.Kind {
	case SojournTable:
		return &stats.QuantileTable{Q: s.Q}
	case SojournExp:
		return stats.Exponential{Lambda: s.Lambda}
	case SojournConst:
		return &stats.QuantileTable{Q: []float64{s.Value, s.Value}}
	}
	panic(fmt.Sprintf("core: dist of invalid sojourn model kind %q", s.Kind))
}

// Mean returns the model's expected duration in seconds.
func (s SojournModel) Mean() float64 { return s.Dist().Mean() }

// Valid reports whether the generator can sample the model (compileDist).
func (s SojournModel) Valid() bool {
	_, ok := compileDist(s)
	return ok
}

// fitSojourn builds a sojourn model of the requested kind from observed
// durations (seconds). It degrades gracefully: empty samples become a
// 60-second point mass (never reached in practice because transitions are
// only parameterized when observed), single-valued samples become point
// masses, and exponential fits that are degenerate fall back to a point
// mass at the sample mean.
//
// The sample list is the caller's to give away: a SojournTable fit sorts
// it in place (scratch is stats.SortFloats' buffer, reusable across
// calls) rather than sorting a copy. A SojournExp fit folds the list in
// the order given and leaves it alone.
func fitSojourn(samples []float64, kind string, scratch *[]float64) SojournModel {
	if len(samples) == 0 {
		return SojournModel{Kind: SojournConst, Value: 60}
	}
	allEqual := true
	for _, x := range samples[1:] {
		if x != samples[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return SojournModel{Kind: SojournConst, Value: samples[0]}
	}
	switch kind {
	case SojournExp:
		fit, err := stats.FitExponential(samples)
		if err != nil {
			return SojournModel{Kind: SojournConst, Value: stats.Mean(samples)}
		}
		return SojournModel{Kind: SojournExp, Lambda: fit.Lambda}
	default: // SojournTable
		n := stats.DefaultQuantilePoints
		if len(samples) < n {
			// No point tabulating finer than the sample itself.
			n = len(samples) + 1
			if n < 2 {
				n = 2
			}
		}
		stats.SortFloats(samples, scratch)
		return SojournModel{Kind: SojournTable, Q: stats.EmpiricalOfSorted(samples).QuantileTable(n).Q}
	}
}
