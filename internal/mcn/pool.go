package mcn

import (
	"fmt"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// Pool models a horizontally scaled control plane: N MME instances with
// UE-affinity sharding (every UE's signaling must stay on one instance,
// as 3GPP's UE-association requires). It answers the scalability
// question the paper's generator exists for: how evenly does realistic
// — bursty, heavy-tailed, diurnal — per-UE traffic spread across
// instances, compared to the uniform-traffic assumption?
type Pool struct {
	instances []*MME
}

// NewPool creates n MME instances enforcing the given machine.
func NewPool(n int, machine *sm.Machine) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mcn: pool needs at least one instance")
	}
	p := &Pool{instances: make([]*MME, n)}
	for i := range p.instances {
		p.instances[i] = New(machine)
	}
	return p, nil
}

// shard maps a UE to its instance with a multiplicative hash, so
// consecutive UE ids do not land on the same instance.
func (p *Pool) shard(ue uint32) int {
	h := uint64(ue) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(p.instances)))
}

// PoolStats summarizes a pool run.
type PoolStats struct {
	// PerInstance holds each instance's final stats.
	PerInstance []Stats
	// Imbalance is max/mean of per-instance processed events (1.0 =
	// perfectly even).
	Imbalance float64
	// PeakImbalance is the same ratio over the busiest 1-minute window
	// of each instance — bursts concentrate harder than totals.
	PeakImbalance float64
	// Violations totals protocol violations across instances.
	Violations int
}

// ProcessTrace drives a whole (sorted) trace through the pool and
// computes balance statistics.
func (p *Pool) ProcessTrace(tr *trace.Trace) PoolStats {
	n := len(p.instances)
	lo, hi := tr.Span()
	bins := int((hi-lo)/cp.Minute) + 1
	perMinute := make([][]int, n)
	for i := range perMinute {
		perMinute[i] = make([]int, bins)
	}
	for _, e := range tr.Events {
		i := p.shard(uint32(e.UE))
		p.instances[i].Process(e)
		perMinute[i][(e.T-lo)/cp.Minute]++
	}
	out := PoolStats{PerInstance: make([]Stats, n)}
	var total, maxTotal float64
	var peakMax, peakSum float64
	for i, m := range p.instances {
		st := m.Stats()
		out.PerInstance[i] = st
		out.Violations += st.Violations
		total += float64(st.Processed)
		if float64(st.Processed) > maxTotal {
			maxTotal = float64(st.Processed)
		}
		instPeak := 0
		for _, c := range perMinute[i] {
			if c > instPeak {
				instPeak = c
			}
		}
		peakSum += float64(instPeak)
		if float64(instPeak) > peakMax {
			peakMax = float64(instPeak)
		}
	}
	if total > 0 {
		out.Imbalance = maxTotal / (total / float64(n))
	} else {
		out.Imbalance = math.NaN()
	}
	if peakSum > 0 {
		out.PeakImbalance = peakMax / (peakSum / float64(n))
	} else {
		out.PeakImbalance = math.NaN()
	}
	return out
}
