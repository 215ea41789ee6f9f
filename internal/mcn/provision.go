package mcn

import (
	"fmt"
	"math"
	"sort"

	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// Capacity assigns each network function a service rate in transactions
// per second.
type Capacity [NumNFs]float64

// NFReport summarizes one network function's behavior under a trace.
type NFReport struct {
	Transactions int
	// Utilization is offered load over capacity (can exceed 1 when the
	// function is under-provisioned).
	Utilization float64
	// Queueing delay of transactions through the FIFO server, seconds.
	MeanDelay float64
	P99Delay  float64
	MaxDelay  float64
}

// ProvisionReport is the result of replaying a trace through the core's
// network functions.
type ProvisionReport struct {
	PerNF [NumNFs]NFReport
	// Span is the trace duration in seconds the rates are relative to.
	Span float64
}

// Provision replays a (sorted) trace through a FIFO queueing model of
// the five network functions: every control event fans out into
// transactions (see Transactions), each NF serves them one at a time at
// its capacity rate. The report gives per-NF utilization and queueing
// delays — the numbers an MCN dimensioning study provisions against
// (§3.1's "evaluating the scalability of MCN design").
func Provision(tr *trace.Trace, cap Capacity) (ProvisionReport, error) {
	for n, c := range cap {
		if c <= 0 {
			return ProvisionReport{}, fmt.Errorf("mcn: capacity of %v must be positive", NF(n))
		}
	}
	if !tr.Sorted() {
		return ProvisionReport{}, fmt.Errorf("mcn: Provision needs a sorted trace")
	}
	var rep ProvisionReport
	lo, hi := tr.Span()
	rep.Span = (hi - lo).Seconds()
	for n, arr := range nfArrivals(tr) {
		rep.PerNF[n].Transactions = len(arr)
		if rep.Span > 0 {
			offered := float64(len(arr)) / rep.Span
			rep.PerNF[n].Utilization = offered / cap[n]
		}
		if len(arr) == 0 {
			continue
		}
		delays := fifoDelays(arr, cap[n])
		rep.PerNF[n].MeanDelay = stats.Mean(delays)
		sort.Float64s(delays)
		rep.PerNF[n].P99Delay = p99(delays)
		rep.PerNF[n].MaxDelay = delays[len(delays)-1]
	}
	return rep, nil
}

// SuggestCapacity finds, per network function, the smallest service rate
// (within 1%) whose 99th-percentile queueing delay under the trace stays
// at or below targetP99 seconds. This is the dimensioning question the
// traffic generator exists to answer: "how big must each function be for
// this population?"
func SuggestCapacity(tr *trace.Trace, targetP99 float64) (Capacity, error) {
	if targetP99 <= 0 {
		return Capacity{}, fmt.Errorf("mcn: targetP99 must be positive")
	}
	if tr.Len() == 0 {
		return Capacity{}, fmt.Errorf("mcn: empty trace")
	}
	if !tr.Sorted() {
		return Capacity{}, fmt.Errorf("mcn: SuggestCapacity needs a sorted trace")
	}
	lo, hi := tr.Span()
	span := (hi - lo).Seconds()
	if span <= 0 {
		return Capacity{}, fmt.Errorf("mcn: degenerate trace span")
	}

	arrivals := nfArrivals(tr)
	var out Capacity
	for n := 0; n < NumNFs; n++ {
		if len(arrivals[n]) == 0 {
			out[n] = 1 // nothing arrives; any positive rate works
			continue
		}
		offered := float64(len(arrivals[n])) / span
		loRate, hiRate := offered, offered*1000
		// Ensure the upper bracket actually meets the target.
		for p99At(arrivals[n], hiRate) > targetP99 {
			hiRate *= 10
			if hiRate > offered*1e9 {
				break
			}
		}
		for hiRate/loRate > 1.01 {
			mid := math.Sqrt(loRate * hiRate)
			if p99At(arrivals[n], mid) <= targetP99 {
				hiRate = mid
			} else {
				loRate = mid
			}
		}
		out[n] = hiRate
	}
	return out, nil
}

// nfArrivals fans a sorted trace's events out into each network
// function's transaction arrival times (seconds), in time order.
func nfArrivals(tr *trace.Trace) [NumNFs][]float64 {
	var out [NumNFs][]float64
	for _, ev := range tr.Events {
		t := ev.T.Seconds()
		tx := Transactions(ev.Type)
		for n := 0; n < NumNFs; n++ {
			for k := 0; k < tx[n]; k++ {
				out[n] = append(out[n], t)
			}
		}
	}
	return out
}

// fifoDelays returns the queueing delay of each arrival at a FIFO server
// of the given rate.
func fifoDelays(arrivals []float64, rate float64) []float64 {
	service := 1 / rate
	free := 0.0 // when the server is next free
	delays := make([]float64, len(arrivals))
	for i, t := range arrivals {
		start := math.Max(t, free)
		free = start + service
		delays[i] = start - t
	}
	return delays
}

// p99 is the 99th percentile of sorted delays.
func p99(sorted []float64) float64 {
	return sorted[int(0.99*float64(len(sorted)-1))]
}

// p99At computes the p99 FIFO queueing delay for arrivals served at rate.
func p99At(arrivals []float64, rate float64) float64 {
	delays := fifoDelays(arrivals, rate)
	sort.Float64s(delays)
	return p99(delays)
}
