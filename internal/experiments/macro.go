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

// BreakdownTable regenerates Table 4 (scenario 2) or Table 11 (scenario
// 1): signed differences between the real busy-hour breakdown and each
// method's synthesized breakdown, per device type.
func BreakdownTable(l *Lab, w io.Writer, scenario int) error {
	realCol, err := l.realCollection(scenario)
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
		realB := eval.ComputeBreakdown(realCol, d)
		diffs := map[string]map[string]float64{}
		for _, m := range baseline.Methods {
			gen, err := l.generatedCollection(m, scenario)
			if err != nil {
				return err
			}
			diffs[m] = eval.BreakdownDiff(realB, eval.ComputeBreakdown(gen, d))
		}
		for _, k := range eval.BreakdownKeys {
			tbl.AddRow(d.String(), k,
				report.Pct(realB.Share[k]),
				report.SignedPct(diffs["base"][k]),
				report.SignedPct(diffs["v1"][k]),
				report.SignedPct(diffs["v2"][k]),
				report.SignedPct(diffs["ours"][k]))
		}
	}
	return tbl.Render(w)
}

// BreakdownErrors returns each method's maximum absolute breakdown error
// per device type — the comparison the reproduction must preserve:
// ours <= v2 < v1 < base.
func BreakdownErrors(l *Lab, scenario int) (map[string]map[cp.DeviceType]float64, error) {
	realCol, err := l.realCollection(scenario)
	if err != nil {
		return nil, err
	}
	out := map[string]map[cp.DeviceType]float64{}
	for _, m := range baseline.Methods {
		gen, err := l.generatedCollection(m, scenario)
		if err != nil {
			return nil, err
		}
		out[m] = map[cp.DeviceType]float64{}
		for _, d := range cp.DeviceTypes {
			realB := eval.ComputeBreakdown(realCol, d)
			out[m][d] = eval.MaxAbsDiff(eval.BreakdownDiff(realB, eval.ComputeBreakdown(gen, d)))
		}
	}
	return out, nil
}

// Table7 regenerates the 5G projection: the LTE model is adapted to 5G
// NSA (HO x4.6) and 5G SA (HO x3.0, TAU removed), multi-hour traces are
// synthesized for all three, and the per-device breakdowns reported.
func Table7(l *Lab, w io.Writer) error {
	models, err := l.Models()
	if err != nil {
		return err
	}
	lte := models["ours"]
	nsa, err := fiveg.ToNSA(lte, fiveg.NSAHandoverFactor)
	if err != nil {
		return err
	}
	sa, err := fiveg.ToSA(lte, fiveg.SAHandoverFactor)
	if err != nil {
		return err
	}
	genOpt := core.GenOptions{
		NumUEs:    l.Cfg.Scenario1UEs,
		StartHour: 8,
		Duration:  12 * cp.Hour,
		Seed:      l.Cfg.Seed + 77,
		Workers:   l.Cfg.Workers,
	}
	traces := map[string]*core.ModelSet{"LTE": lte, "NSA": nsa, "SA": sa}
	shares := map[string][cp.NumDeviceTypes][cp.NumEventTypes]float64{}
	for name, ms := range traces {
		tr, err := core.Generate(ms, genOpt)
		if err != nil {
			return err
		}
		var s [cp.NumDeviceTypes][cp.NumEventTypes]float64
		for _, d := range cp.DeviceTypes {
			s[d], _ = eval.SimpleBreakdown(tr, d)
		}
		shares[name] = s
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
			for _, net := range []string{"LTE", "NSA", "SA"} {
				row = append(row, report.Pct(shares[net][d][e]))
			}
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}

// FiveGShares returns the HO shares per network mode for validation.
func FiveGShares(l *Lab) (lteHO, nsaHO, saHO float64, err error) {
	models, err := l.Models()
	if err != nil {
		return 0, 0, 0, err
	}
	lte := models["ours"]
	nsa, err := fiveg.ToNSA(lte, fiveg.NSAHandoverFactor)
	if err != nil {
		return 0, 0, 0, err
	}
	sa, err := fiveg.ToSA(lte, fiveg.SAHandoverFactor)
	if err != nil {
		return 0, 0, 0, err
	}
	genOpt := core.GenOptions{
		NumUEs: l.Cfg.Scenario1UEs, StartHour: 8, Duration: 4 * cp.Hour, Seed: l.Cfg.Seed + 78,
		Workers: l.Cfg.Workers,
	}
	hoShare := func(ms *core.ModelSet) (float64, error) {
		tr, err := core.Generate(ms, genOpt)
		if err != nil {
			return 0, err
		}
		if tr.Len() == 0 {
			return 0, fmt.Errorf("experiments: empty 5G trace")
		}
		return float64(tr.CountByType()[cp.Handover]) / float64(tr.Len()), nil
	}
	if lteHO, err = hoShare(lte); err != nil {
		return
	}
	if nsaHO, err = hoShare(nsa); err != nil {
		return
	}
	saHO, err = hoShare(sa)
	return
}
