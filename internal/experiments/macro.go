package experiments

import (
	"fmt"
	"io"

	"cptraffic/internal/baseline"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/fiveg"
	"cptraffic/internal/report"
)

// Table1 regenerates the paper's Table 1: the breakdown of control-plane
// events per device type over the multi-day training trace.
func Table1(l *Lab, w io.Writer) error {
	tr, err := l.Train()
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:  fmt.Sprintf("Table 1 — event breakdown, %d-day world trace, %d UEs", l.Cfg.Days, l.Cfg.TrainUEs),
		Header: []string{"Event Type", "P", "CC", "T"},
	}
	var shares [cp.NumDeviceTypes][cp.NumEventTypes]float64
	for _, d := range cp.DeviceTypes {
		shares[d], _ = eval.SimpleBreakdown(tr, d)
	}
	for _, e := range cp.EventTypes {
		tbl.AddRow(e.String(),
			report.Pct(shares[cp.Phone][e]),
			report.Pct(shares[cp.ConnectedCar][e]),
			report.Pct(shares[cp.Tablet][e]))
	}
	return tbl.Render(w)
}

// breakdownResult is what Table 4 or 11 prints for one scenario: per
// device type, the real busy-hour breakdown and each method's signed
// differences from it, by method and row.
type breakdownResult struct {
	real  [cp.NumDeviceTypes]eval.Breakdown
	diffs [cp.NumDeviceTypes]map[string]map[string]float64
}

// breakdown computes Table 4 (scenario 2) or Table 11 (scenario 1).
func breakdown(l *Lab, scenario int) (breakdownResult, error) {
	var res breakdownResult
	realCol, err := l.realCollection(scenario)
	if err != nil {
		return res, err
	}
	for _, d := range cp.DeviceTypes {
		res.real[d] = eval.ComputeBreakdown(realCol, d)
		res.diffs[d] = make(map[string]map[string]float64, len(baseline.Methods))
		for _, m := range baseline.Methods {
			gen, err := l.generatedCollection(m, scenario)
			if err != nil {
				return res, err
			}
			res.diffs[d][m] = eval.BreakdownDiff(res.real[d], eval.ComputeBreakdown(gen, d))
		}
	}
	return res, nil
}

// BreakdownTable regenerates Table 4 (scenario 2) or Table 11 (scenario
// 1): signed differences between the real busy-hour breakdown and each
// method's synthesized breakdown, per device type.
func BreakdownTable(l *Lab, w io.Writer, scenario int) error {
	res, err := breakdown(l, scenario)
	if err != nil {
		return err
	}
	num := map[int]string{1: "11", 2: "4"}[scenario]
	ues := l.Cfg.Scenario1UEs
	if scenario == 2 {
		ues = l.Cfg.Scenario2UEs
	}
	tbl := report.Table{
		Title:  fmt.Sprintf("Table %s — breakdown differences vs real, scenario %d (%d UEs, hour %d)", num, scenario, ues, l.Cfg.BusyHour),
		Header: []string{"Device", "Row", "Real", "Base", "V1", "V2", "Ours"},
	}
	for _, d := range cp.DeviceTypes {
		diffs := res.diffs[d]
		for _, k := range eval.BreakdownKeys {
			tbl.AddRow(d.String(), k,
				report.Pct(res.real[d].Share[k]),
				report.SignedPct(diffs["base"][k]),
				report.SignedPct(diffs["v1"][k]),
				report.SignedPct(diffs["v2"][k]),
				report.SignedPct(diffs["ours"][k]))
		}
	}
	return tbl.Render(w)
}

// fiveGBreakdown is one Table 7 network's trace as the table reads it:
// per device type, the event shares and the event count they are
// relative to.
type fiveGBreakdown struct {
	shares [cp.NumDeviceTypes][cp.NumEventTypes]float64
	totals [cp.NumDeviceTypes]int
}

// table7 computes the 5G projection: the LTE model is adapted to 5G NSA
// (HO x4.6) and 5G SA (HO x3.0, TAU removed), and a 12-hour trace of
// each of the three is synthesized and broken down: LTE, NSA and SA, the
// table's column order.
func table7(l *Lab) ([3]fiveGBreakdown, error) {
	var out [3]fiveGBreakdown
	models, err := l.Models()
	if err != nil {
		return out, err
	}
	lte := models["ours"]
	nsa, err := fiveg.ToNSA(lte, fiveg.NSAHandoverFactor)
	if err != nil {
		return out, err
	}
	sa, err := fiveg.ToSA(lte, fiveg.SAHandoverFactor)
	if err != nil {
		return out, err
	}
	genOpt := core.GenOptions{
		NumUEs:    l.Cfg.Scenario1UEs,
		StartHour: 8,
		Duration:  12 * cp.Hour,
		Seed:      l.Cfg.Seed + 77,
		Workers:   l.Cfg.Workers,
	}
	for i, ms := range []*core.ModelSet{lte, nsa, sa} {
		tr, err := core.Generate(ms, genOpt)
		if err != nil {
			return out, err
		}
		for _, d := range cp.DeviceTypes {
			out[i].shares[d], out[i].totals[d] = eval.SimpleBreakdown(tr, d)
		}
	}
	return out, nil
}

// Table7 regenerates the 5G projection's per-device breakdowns.
func Table7(l *Lab, w io.Writer) error {
	nets, err := table7(l)
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title: "Table 7 — projected 5G NSA/SA breakdowns (plus the LTE reference)",
		Header: []string{"Event (NSA/SA)", "P LTE", "P NSA", "P SA",
			"CC LTE", "CC NSA", "CC SA", "T LTE", "T NSA", "T SA"},
	}
	for _, e := range cp.EventTypes {
		name5g, _ := e.FiveGName()
		label := fmt.Sprintf("%s/%s", e, name5g)
		row := []string{label}
		for _, d := range cp.DeviceTypes {
			for i := range nets {
				row = append(row, report.Pct(nets[i].shares[d][e]))
			}
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}
