package experiments

import (
	"fmt"
	"io"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/report"
)

// Table5 regenerates the microscopic comparison: maximum y-distance
// between the CDFs of per-UE SRV_REQ/S1_CONN_REL counts and of the
// CONNECTED/IDLE sojourns, for V2 vs Ours, in both scenarios.
func Table5(l *Lab, w io.Writer) error {
	tbl := report.Table{
		Title:  "Table 5 — max y-distance between synthesized and real CDFs (V2 vs Ours)",
		Header: []string{"Scenario", "Device", "Row", "V2", "Ours"},
	}
	for _, scenario := range []int{1, 2} {
		for _, d := range cp.DeviceTypes {
			v2, err := MicroDistancesFor(l, scenario, "v2", d)
			if err != nil {
				return err
			}
			ours, err := MicroDistancesFor(l, scenario, "ours", d)
			if err != nil {
				return err
			}
			sc := fmt.Sprintf("%d", scenario)
			tbl.AddRow(sc, d.String(), "SRV_REQ", report.Pct(v2.SrvReqPerUE), report.Pct(ours.SrvReqPerUE))
			tbl.AddRow(sc, d.String(), "S1_CONN_REL", report.Pct(v2.S1RelPerUE), report.Pct(ours.S1RelPerUE))
			tbl.AddRow(sc, d.String(), "CONNECTED", report.Pct(v2.Connected), report.Pct(ours.Connected))
			tbl.AddRow(sc, d.String(), "IDLE", report.Pct(v2.Idle), report.Pct(ours.Idle))
		}
	}
	return tbl.Render(w)
}

// ImprovementFactors reproduces the headline ratios of the paper's
// introduction ("our method reduces the maximum y-distance ... by over
// 7.74x/7.46x for SRV_REQ/S1_CONN_REL events, and ... 4.77x/3.25x" for
// the state sojourns): for each comparison method, the factor by which
// Ours shrinks each Table 5 metric.
func ImprovementFactors(l *Lab, scenario int, d cp.DeviceType) (map[string]eval.MicroDistances, error) {
	ours, err := MicroDistancesFor(l, scenario, "ours", d)
	if err != nil {
		return nil, err
	}
	ratio := func(other, ours float64) float64 {
		if ours <= 0 {
			return math.Inf(1)
		}
		return other / ours
	}
	out := make(map[string]eval.MicroDistances, 3)
	for _, m := range []string{"base", "v1", "v2"} {
		md, err := MicroDistancesFor(l, scenario, m, d)
		if err != nil {
			return nil, err
		}
		out[m] = eval.MicroDistances{
			SrvReqPerUE: ratio(md.SrvReqPerUE, ours.SrvReqPerUE),
			S1RelPerUE:  ratio(md.S1RelPerUE, ours.S1RelPerUE),
			Connected:   ratio(md.Connected, ours.Connected),
			Idle:        ratio(md.Idle, ours.Idle),
		}
	}
	return out, nil
}

// ImprovementTable renders the improvement factors for every device type
// in scenario 2.
func ImprovementTable(l *Lab, w io.Writer) error {
	tbl := report.Table{
		Title:  "Improvement factors — how much Ours shrinks each max y-distance vs the other methods (scenario 2)",
		Header: []string{"Device", "Vs", "SRV_REQ/UE", "S1_CONN_REL/UE", "CONNECTED", "IDLE"},
	}
	for _, d := range cp.DeviceTypes {
		factors, err := ImprovementFactors(l, 2, d)
		if err != nil {
			return err
		}
		for _, m := range []string{"base", "v1", "v2"} {
			f := factors[m]
			tbl.AddRow(d.String(), m,
				fmt.Sprintf("%.2fx", f.SrvReqPerUE),
				fmt.Sprintf("%.2fx", f.S1RelPerUE),
				fmt.Sprintf("%.2fx", f.Connected),
				fmt.Sprintf("%.2fx", f.Idle))
		}
	}
	return tbl.Render(w)
}

// MicroDistancesFor exposes the Table 5 cells for one scenario and
// device, for programmatic checks.
func MicroDistancesFor(l *Lab, scenario int, method string, d cp.DeviceType) (eval.MicroDistances, error) {
	realCol, err := l.realCollection(scenario)
	if err != nil {
		return eval.MicroDistances{}, err
	}
	gen, err := l.generatedCollection(method, scenario)
	if err != nil {
		return eval.MicroDistances{}, err
	}
	return eval.ComputeMicroDistances(realCol, gen, d), nil
}

// Table6 regenerates the inactive/active UE split of the per-UE count
// distances for connected cars and tablets ("our proposed traffic model
// only mis-predicts the number of events by 1 ... for inactive UEs").
func Table6(l *Lab, w io.Writer) error {
	tbl := report.Table{
		Title:  "Table 6 — max y-distance for inactive (<=2 events) / active UE groups, method: ours",
		Header: []string{"Scenario", "Row", "CC inact", "CC act", "T inact", "T act"},
	}
	for _, scenario := range []int{1, 2} {
		realCol, err := l.realCollection(scenario)
		if err != nil {
			return err
		}
		oursCol, err := l.generatedCollection("ours", scenario)
		if err != nil {
			return err
		}
		for _, e := range []cp.EventType{cp.ServiceRequest, cp.S1ConnRelease} {
			ccIn, ccAct := eval.ActivitySplit(realCol, oursCol, cp.ConnectedCar, e)
			tIn, tAct := eval.ActivitySplit(realCol, oursCol, cp.Tablet, e)
			tbl.AddRow(fmt.Sprintf("%d", scenario), e.String(),
				report.Pct(ccIn), report.Pct(ccAct), report.Pct(tIn), report.Pct(tAct))
		}
	}
	return tbl.Render(w)
}

// Figure7 exports the per-UE event-count CDFs (real vs base vs ours) for
// every device type in scenario 2, as CSV series.
func Figure7(l *Lab, w io.Writer) error {
	realCol, err := l.realCollection(2)
	if err != nil {
		return err
	}
	baseCol, err := l.generatedCollection("base", 2)
	if err != nil {
		return err
	}
	oursCol, err := l.generatedCollection("ours", 2)
	if err != nil {
		return err
	}
	for _, d := range cp.DeviceTypes {
		for _, e := range []cp.EventType{cp.ServiceRequest, cp.S1ConnRelease} {
			fmt.Fprintf(w, "# Figure 7 — CDF of %s per UE, %s, scenario 2\n", e, d)
			r := eval.ComputeCDF(eval.EventsPerUE(realCol, d, e))
			b := eval.ComputeCDF(eval.EventsPerUE(baseCol, d, e))
			o := eval.ComputeCDF(eval.EventsPerUE(oursCol, d, e))
			if err := report.Series(w,
				[]string{"x_real", "F_real", "x_base", "F_base", "x_ours", "F_ours"},
				r.X, r.F, b.X, b.F, o.X, o.F); err != nil {
				return err
			}
		}
	}
	return nil
}
