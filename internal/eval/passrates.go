package eval

import (
	"fmt"
	"math"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/par"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
)

// QuantityKind discriminates the per-UE quantities the paper fits.
type QuantityKind uint8

const (
	// QInterArrival is the inter-arrival time of one event type.
	QInterArrival QuantityKind = iota
	// QStateSojourn is the sojourn time in one macro state
	// (DEREGISTERED, CONNECTED, IDLE).
	QStateSojourn
	// QRegisteredSojourn is the sojourn in the REGISTERED macro state
	// (ATCH to DTCH spans).
	QRegisteredSojourn
	// QTransSojourn is the sojourn before one bottom-level transition of
	// the two-level machine (Table 10's nine transitions).
	QTransSojourn
)

// Quantity identifies one fitted quantity. Its samples are filed under
// an hour of day: an inter-arrival under its second event's hour, and a
// sojourn (QStateSojourn, QRegisteredSojourn, QTransSojourn) under the
// hour of the event that exits it. The fit files a sojourn under the
// hour it was entered instead (DESIGN.md, "One per-UE walk").
type Quantity struct {
	Kind  QuantityKind
	Event cp.EventType // QInterArrival, QTransSojourn (trigger event)
	State cp.UEState   // QStateSojourn
	From  sm.State     // QTransSojourn (two-level machine state)
}

// String names the quantity the way the paper's table headers do.
func (q Quantity) String() string {
	switch q.Kind {
	case QInterArrival:
		return q.Event.String()
	case QStateSojourn:
		return q.State.String()
	case QRegisteredSojourn:
		return "REGISTERED"
	case QTransSojourn:
		return fmt.Sprintf("%s-%s", sm.LTE2Level().StateName(q.From), q.Event)
	}
	return "?"
}

// Table8Quantities are the ten columns of Tables 8 and 9: the six event
// inter-arrivals and the four EMM/ECM state sojourns.
func Table8Quantities() []Quantity {
	out := make([]Quantity, 0, 10)
	for _, e := range cp.EventTypes {
		out = append(out, Quantity{Kind: QInterArrival, Event: e})
	}
	out = append(out,
		Quantity{Kind: QRegisteredSojourn},
		Quantity{Kind: QStateSojourn, State: cp.StateDeregistered},
		Quantity{Kind: QStateSojourn, State: cp.StateConnected},
		Quantity{Kind: QStateSojourn, State: cp.StateIdle},
	)
	return out
}

// Table10Quantities are the nine second-level transitions of Table 10.
func Table10Quantities() []Quantity {
	mk := func(from sm.State, e cp.EventType) Quantity {
		return Quantity{Kind: QTransSojourn, From: from, Event: e}
	}
	return []Quantity{
		mk(sm.LTESrvReqS, cp.Handover),
		mk(sm.LTEHoS, cp.Handover),
		mk(sm.LTETauSConn, cp.Handover),
		mk(sm.LTESrvReqS, cp.TrackingAreaUpdate),
		mk(sm.LTETauSConn, cp.TrackingAreaUpdate),
		mk(sm.LTEHoS, cp.TrackingAreaUpdate),
		mk(sm.LTES1RelS1, cp.TrackingAreaUpdate),
		mk(sm.LTES1RelS2, cp.TrackingAreaUpdate),
		mk(sm.LTETauSIdle, cp.S1ConnRelease),
	}
}

// DistTest enumerates the goodness-of-fit tests of Tables 8-10.
type DistTest uint8

const (
	// PoissonKS tests exponential inter-arrivals with Kolmogorov-Smirnov.
	PoissonKS DistTest = iota
	// PoissonAD tests exponentiality with Anderson-Darling.
	PoissonAD
	// ParetoKS tests an MLE Pareto fit with K-S.
	ParetoKS
	// WeibullKS tests an MLE Weibull fit with K-S.
	WeibullKS
	// TcplibKS tests the fixed Tcplib-style empirical reference with K-S.
	TcplibKS

	numDistTests = iota
)

// NumDistTests is the number of tests run per sample.
const NumDistTests = int(numDistTests)

var distTestNames = [NumDistTests]string{
	"Poisson (K-S)", "Poisson (A2)", "Pareto (K-S)", "Weibull (K-S)", "Tcplib (K-S)",
}

// String names the test the way the paper's tables do.
func (d DistTest) String() string {
	if int(d) < len(distTestNames) {
		return distTestNames[d]
	}
	return "?"
}

// tcplibRef is the fixed Tcplib-style empirical reference distribution.
// The original Tcplib library (Danzig & Jamin 1991) shipped empirical
// tables of wide-area TELNET inter-arrivals, which are not publicly
// redistributable in machine form; we substitute a deterministic
// synthetic table with the same character (a sub-second keystroke mode
// plus a heavy multi-second pause tail). Like the original, it is a
// fixed distribution, so virtually no cellular control-plane sample
// matches it — reproducing the ~0% pass rates of Tables 8 and 9.
var tcplibRef = buildTcplibRef()

func buildTcplibRef() *stats.QuantileTable {
	r := stats.NewRNG(0x7C9)
	xs := make([]float64, 4096)
	for i := range xs {
		if r.Float64() < 0.6 {
			xs[i] = r.Lognormal(-1.9, 1.2) // keystrokes: ~150 ms median
		} else {
			xs[i] = r.Lognormal(1.1, 1.8) // pauses: ~3 s median
		}
	}
	return stats.NewQuantileTable(xs)
}

// runTest fits the reference distribution to the sample (where the test
// family requires it) and reports whether the sample passes at the 5%
// significance level.
func runTest(test DistTest, xs []float64) (pass, ok bool) {
	const alpha = 0.05
	switch test {
	case PoissonKS:
		fit, err := stats.FitExponential(xs)
		if err != nil {
			return false, false
		}
		return !stats.KSTest(xs, fit).Reject(alpha), true
	case PoissonAD:
		res, err := stats.ADTestExponential(xs)
		if err != nil {
			return false, false
		}
		return !res.Reject(alpha), true
	case ParetoKS:
		fit, err := stats.FitPareto(xs)
		if err != nil {
			return false, false
		}
		return !stats.KSTest(xs, fit).Reject(alpha), true
	case WeibullKS:
		fit, err := stats.FitWeibull(xs)
		if err != nil {
			return false, false
		}
		return !stats.KSTest(xs, fit).Reject(alpha), true
	case TcplibKS:
		return !stats.KSTest(xs, tcplibRef).Reject(alpha), true
	}
	return false, false
}

// FitTestOptions configures a pass-rate sweep.
type FitTestOptions struct {
	// Clustered groups UEs with the paper's adaptive clustering before
	// pooling samples (Table 9 and 10); otherwise all UEs of a device
	// type form one group per hour (Table 8).
	Clustered bool
	// Cluster configures the clustering when Clustered is set.
	Cluster cluster.Options
	// MinSamples is the smallest pooled sample a unit needs to be
	// tested (default 8).
	MinSamples int
	// Workers bounds sweep concurrency; 0 means GOMAXPROCS. The
	// independent per-hour clusterings and per-(hour, group) test units
	// are distributed over the pool and reduced in deterministic order,
	// so the worker count never changes the reported rates.
	Workers int
}

// PassRates runs the goodness-of-fit sweep over a collection: for every
// (device type, hour-of-day, UE group) unit and every quantity, the
// pooled sample is fitted and tested against each distribution family;
// the result is the fraction of units passing at the 5% level.
func PassRates(col *Collection, quantities []Quantity, opt FitTestOptions) map[DistTest]map[cp.DeviceType]map[Quantity]float64 {
	if opt.MinSamples <= 0 {
		opt.MinSamples = 8
	}
	out := make(map[DistTest]map[cp.DeviceType]map[Quantity]float64)
	for t := 0; t < NumDistTests; t++ {
		out[DistTest(t)] = make(map[cp.DeviceType]map[Quantity]float64)
		for _, d := range cp.DeviceTypes {
			out[DistTest(t)][d] = make(map[Quantity]float64)
		}
	}

	days := col.days

	for _, d := range cp.DeviceTypes {
		ues := col.ues[d]
		if len(ues) == 0 {
			continue
		}
		data := col.data[d]
		groups := groupUEs(ues, data, days, opt)

		// Every (hour, UE group) is an independent test unit: pool the
		// group's samples, fit, test. Units run across the worker pool;
		// each writes only its own verdict slot, and the tallies are
		// reduced serially afterwards, so the rates match the serial
		// sweep exactly.
		type unit struct {
			h int
			g []int
		}
		var units []unit
		for h := 0; h < 24; h++ {
			for _, g := range groups[h] {
				units = append(units, unit{h: h, g: g})
			}
		}
		// verdicts[u][qi*NumDistTests+t]: -1 untested, 0 fail, 1 pass.
		verdicts := make([][]int8, len(units))
		par.For(len(units), opt.Workers, func(u int) {
			v := make([]int8, len(quantities)*NumDistTests)
			for i := range v {
				v[i] = -1
			}
			for qi, q := range quantities {
				var xs []float64
				for _, i := range units[u].g {
					xs = append(xs, data[i].at(units[u].h, q)...)
				}
				if len(xs) < opt.MinSamples {
					continue
				}
				for t := 0; t < NumDistTests; t++ {
					pass, ok := runTest(DistTest(t), xs)
					if !ok {
						continue
					}
					if pass {
						v[qi*NumDistTests+t] = 1
					} else {
						v[qi*NumDistTests+t] = 0
					}
				}
			}
			verdicts[u] = v
		})

		// pass[test][quantity] = (passed units, tested units)
		type tally struct{ pass, total int }
		tallies := make(map[DistTest]map[Quantity]*tally)
		for t := 0; t < NumDistTests; t++ {
			tallies[DistTest(t)] = make(map[Quantity]*tally)
			for _, q := range quantities {
				tallies[DistTest(t)][q] = &tally{}
			}
		}
		for _, v := range verdicts {
			for qi, q := range quantities {
				for t := 0; t < NumDistTests; t++ {
					verdict := v[qi*NumDistTests+t]
					if verdict < 0 {
						continue
					}
					tl := tallies[DistTest(t)][q]
					tl.total++
					if verdict == 1 {
						tl.pass++
					}
				}
			}
		}
		for t := 0; t < NumDistTests; t++ {
			for _, q := range quantities {
				tl := tallies[DistTest(t)][q]
				if tl.total > 0 {
					out[DistTest(t)][d][q] = float64(tl.pass) / float64(tl.total)
				} else {
					out[DistTest(t)][d][q] = math.NaN()
				}
			}
		}
	}
	return out
}

// groupUEs forms the per-hour UE groups: one group of everyone (Table
// 8), or the adaptive clusters (Table 9/10). Returned values are indices
// into the data slice.
func groupUEs(ues []cp.UEID, data []*ueQuantities, days int, opt FitTestOptions) [24][][]int {
	var out [24][][]int
	if !opt.Clustered {
		all := make([]int, len(ues))
		for i := range ues {
			all[i] = i
		}
		for h := 0; h < 24; h++ {
			out[h] = [][]int{all}
		}
		return out
	}
	pos := make(map[cp.UEID]int, len(ues))
	for i, ue := range ues {
		pos[ue] = i
	}
	par.For(24, opt.Workers, func(h int) {
		pts := make([]cluster.Point, len(ues))
		for i, ue := range ues {
			pts[i] = cluster.Point{UE: ue, F: data[i].features(h, days)}
		}
		cs := cluster.Partition(pts, opt.Cluster)
		for _, c := range cs {
			idxs := make([]int, len(c.UEs))
			for j, ue := range c.UEs {
				idxs[j] = pos[ue]
			}
			out[h] = append(out[h], idxs)
		}
	})
	return out
}
