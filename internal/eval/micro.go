package eval

import (
	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// EventsPerUE returns, for every UE of the device type (including silent
// ones), its count of events of the given type — the sample behind the
// per-UE CDFs of Table 5 and Figure 7.
func EventsPerUE(col *Collection, d cp.DeviceType, e cp.EventType) []float64 {
	counts := make([]float64, len(col.data[d]))
	for i, u := range col.data[d] {
		n := 0
		for h := range u.counts {
			n += int(u.counts[h][e])
		}
		counts[i] = float64(n)
	}
	return counts
}

// StateSojourns pools the completed macro-state visit durations
// (seconds) of all UEs of the device type — the sample behind the
// CONNECTED/IDLE sojourn CDFs of Table 5. Each UE's visits come hour of
// day by hour of day, so the pool is sm.MacroSojourns' multiset, not its
// order.
func StateSojourns(col *Collection, d cp.DeviceType, s cp.UEState) []float64 {
	return pool(col.data[d], []Quantity{{Kind: QStateSojourn, State: s}})[0]
}

// MicroDistances is the Table 5 row set for one device type: maximum
// y-distance between the real and synthesized CDFs of events-per-UE (the
// two dominant events) and of the sojourn times in the two dominant
// states.
type MicroDistances struct {
	SrvReqPerUE float64
	S1RelPerUE  float64
	Connected   float64
	Idle        float64
}

// ComputeMicroDistances compares a synthesized trace's collection against
// the real one's for one device type.
func ComputeMicroDistances(real, syn *Collection, d cp.DeviceType) MicroDistances {
	return MicroDistances{
		SrvReqPerUE: stats.MaxYDistance(
			EventsPerUE(real, d, cp.ServiceRequest),
			EventsPerUE(syn, d, cp.ServiceRequest)),
		S1RelPerUE: stats.MaxYDistance(
			EventsPerUE(real, d, cp.S1ConnRelease),
			EventsPerUE(syn, d, cp.S1ConnRelease)),
		Connected: stats.MaxYDistance(
			StateSojourns(real, d, cp.StateConnected),
			StateSojourns(syn, d, cp.StateConnected)),
		Idle: stats.MaxYDistance(
			StateSojourns(real, d, cp.StateIdle),
			StateSojourns(syn, d, cp.StateIdle)),
	}
}

// ActivitySplit computes Table 6: the per-UE event-count y-distance
// separately for inactive UEs (at most two occurrences in the interval)
// and active UEs (more than two), for one device and event type.
func ActivitySplit(real, syn *Collection, d cp.DeviceType, e cp.EventType) (inactive, active float64) {
	split := func(col *Collection) (in, act []float64) {
		for _, c := range EventsPerUE(col, d, e) {
			if c <= 2 {
				in = append(in, c)
			} else {
				act = append(act, c)
			}
		}
		return
	}
	rIn, rAct := split(real)
	sIn, sAct := split(syn)
	return stats.MaxYDistance(rIn, sIn), stats.MaxYDistance(rAct, sAct)
}

// CDFSeries samples an empirical CDF on its own value grid for plotting
// (Figure 7): it returns (x, F(x)) pairs at every distinct sample value.
type CDFSeries struct {
	X []float64
	F []float64
}

// ComputeCDF builds the plot series of a sample's empirical CDF.
func ComputeCDF(xs []float64) CDFSeries {
	if len(xs) == 0 {
		return CDFSeries{}
	}
	e := stats.NewEmpirical(xs)
	vals := e.Values()
	var out CDFSeries
	for i := 0; i < len(vals); i++ {
		if i+1 < len(vals) && vals[i+1] == vals[i] {
			continue
		}
		out.X = append(out.X, vals[i])
		out.F = append(out.F, float64(i+1)/float64(len(vals)))
	}
	return out
}
