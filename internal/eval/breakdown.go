// Package eval computes the paper's evaluation artifacts from traces:
// macroscopic event breakdowns (Tables 1, 4, 7, 11), microscopic per-UE
// CDF distances (Tables 5, 6, Figure 7), goodness-of-fit pass-rate sweeps
// (Tables 8, 9, 10), variance-time curves (Figure 3), CDF-vs-fit series
// (Figure 4), and per-device-hour distribution summaries (Figure 2).
//
// Every per-UE table reads a Collection, which Collect gathers in one
// pass over any trace.EventSource — a trace file through
// trace.FileSource, or an in-memory *trace.Trace — so each trace is
// walked once, however many tables read it. The event-series artifacts
// (Figures 2 and 3, Table 1's shares) read the *trace.Trace itself.
package eval

import (
	"sort"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// BreakdownKeys are the row labels of the paper's breakdown tables, in
// presentation order: the four Category-1 events plus HO and TAU split by
// the macro state they fired in.
var BreakdownKeys = []string{
	"ATCH", "DTCH", "SRV_REQ", "S1_CONN_REL",
	"HO (CONN.)", "HO (IDLE)", "TAU (CONN.)", "TAU (IDLE)",
}

// Breakdown is the event-share decomposition of one device type's
// traffic.
type Breakdown struct {
	// Share maps each BreakdownKey to its fraction of total events.
	Share map[string]float64
	// Total is the event count the shares are relative to.
	Total int
}

// ComputeBreakdown decomposes the events of all UEs of the given device
// type, attributing HO and TAU to the macro state they occurred in (via
// Category-1 tracking, so it is robust to protocol-violating traces from
// the baseline methods).
func ComputeBreakdown(col *Collection, d cp.DeviceType) Breakdown {
	counts := make(map[string]int, len(BreakdownKeys))
	total := 0
	for _, u := range col.data[d] {
		for _, e := range cp.EventTypes {
			for s, c := range u.macro[e] {
				counts[breakdownKey(e, cp.UEState(s))] += int(c)
				total += int(c)
			}
		}
	}
	out := Breakdown{Share: make(map[string]float64, len(BreakdownKeys)), Total: total}
	for _, k := range BreakdownKeys {
		if total > 0 {
			out.Share[k] = float64(counts[k]) / float64(total)
		}
	}
	return out
}

func breakdownKey(e cp.EventType, s cp.UEState) string {
	switch e {
	case cp.Handover:
		if s == cp.StateIdle {
			return "HO (IDLE)"
		}
		return "HO (CONN.)"
	case cp.TrackingAreaUpdate:
		if s == cp.StateIdle {
			return "TAU (IDLE)"
		}
		return "TAU (CONN.)"
	default: // only HO and TAU split by macro state in Tables 4 and 11
		return e.String()
	}
}

// BreakdownDiff returns synthesized-minus-real share differences per row
// (the signed percentages of Tables 4 and 11).
func BreakdownDiff(real, syn Breakdown) map[string]float64 {
	out := make(map[string]float64, len(BreakdownKeys))
	for _, k := range BreakdownKeys {
		out[k] = syn.Share[k] - real.Share[k]
	}
	return out
}

// MaxAbsDiff returns the largest absolute share difference across rows —
// the single-number summary the paper quotes ("within 1.7%, 5.0% and
// 0.8%").
func MaxAbsDiff(diff map[string]float64) float64 {
	var max float64
	for _, k := range BreakdownKeys {
		v := diff[k]
		if v < 0 {
			v = -v
		}
		if v > max {
			max = v
		}
	}
	return max
}

// SimpleBreakdown returns per-event-type shares without the macro-state
// split (the paper's Table 1 format).
func SimpleBreakdown(tr *trace.Trace, d cp.DeviceType) ([cp.NumEventTypes]float64, int) {
	sub := tr.FilterDevice(d)
	c := sub.CountByType()
	var shares [cp.NumEventTypes]float64
	total := sub.Len()
	if total == 0 {
		return shares, 0
	}
	for e, n := range c {
		shares[e] = float64(n) / float64(total)
	}
	return shares, total
}

// HourCounts returns, for one device type and event type, the per-UE
// event counts for every hour-of-day — the data behind the Figure 2 box
// plots. Index: [hour][ue-index]; every UE of the device type appears in
// every hour (zeros included), so box statistics cover silent UEs.
func HourCounts(tr *trace.Trace, d cp.DeviceType, e cp.EventType, days int) [24][]float64 {
	ues := tr.UEsOfType(d)
	idx := make(map[cp.UEID]int, len(ues))
	for i, ue := range ues {
		idx[ue] = i
	}
	if days < 1 {
		days = 1
	}
	var perHour [24][]int
	for h := range perHour {
		perHour[h] = make([]int, len(ues))
	}
	for _, ev := range tr.Events {
		i, ok := idx[ev.UE]
		if !ok || ev.Type != e {
			continue
		}
		perHour[ev.T.HourOfDay()][i]++
	}
	var out [24][]float64
	for h := range perHour {
		out[h] = make([]float64, len(ues))
		for i, c := range perHour[h] {
			out[h][i] = float64(c) / float64(days)
		}
	}
	return out
}

// BoxStats summarizes a sample the way the paper's box plots do.
type BoxStats struct {
	Min, Q1, Median, Mean, Q3, Max float64
}

// ComputeBoxStats returns the five-number summary plus the mean.
func ComputeBoxStats(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return BoxStats{
		Min:    s[0],
		Q1:     q(0.25),
		Median: q(0.5),
		Mean:   sum / float64(len(s)),
		Q3:     q(0.75),
		Max:    s[len(s)-1],
	}
}
