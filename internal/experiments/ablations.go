package experiments

import (
	"fmt"
	"io"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/report"
	"cptraffic/internal/stats"
)

// AblationClusterThresholds sweeps the adaptive-clustering small-cluster
// threshold θn and reports the number of instantiated models and the
// resulting phone breakdown error — quantifying the accuracy/size
// trade-off behind the paper's choice of θn.
func AblationClusterThresholds(l *Lab, w io.Writer) error {
	train, err := l.Train()
	if err != nil {
		return err
	}
	realCol, err := l.realCollection(1)
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:  "Ablation — clustering threshold θn vs model count and phone breakdown error",
		Header: []string{"θn", "Models", "Personas (P)", "Max |diff| (P)"},
	}
	base := l.Cfg.ThetaN
	for _, thetaN := range []int{base * 4, base, base / 2} {
		if thetaN < 2 {
			continue
		}
		opt, err := baseline.Options("ours", cluster.Options{ThetaN: thetaN})
		if err != nil {
			return err
		}
		opt.Workers = l.Cfg.Workers
		ms, err := core.Fit(train, opt)
		if err != nil {
			return err
		}
		gen, err := core.Generate(ms, core.GenOptions{
			NumUEs:    l.Cfg.Scenario1UEs,
			StartHour: l.Cfg.BusyHour,
			Duration:  cp.Hour,
			Seed:      l.Cfg.Seed + 555,
			Workers:   l.Cfg.Workers,
		})
		if err != nil {
			return err
		}
		genCol, err := eval.Collect(gen)
		if err != nil {
			return err
		}
		realB := eval.ComputeBreakdown(realCol, cp.Phone)
		diff := eval.MaxAbsDiff(eval.BreakdownDiff(realB, eval.ComputeBreakdown(genCol, cp.Phone)))
		personas := 0
		if dm := ms.Device(cp.Phone); dm != nil {
			personas = len(dm.Personas)
		}
		tbl.AddRow(fmt.Sprintf("%d", thetaN),
			fmt.Sprintf("%d", ms.NumModels()),
			fmt.Sprintf("%d", personas),
			report.Pct(diff))
	}
	return tbl.Render(w)
}

// AblationTableResolution sweeps the quantile-table grid resolution and
// reports the K-S distance between resampled draws and the original
// sojourn sample — the compression/fidelity trade-off of the empirical
// CDF storage.
func AblationTableResolution(l *Lab, w io.Writer) error {
	col, err := l.trainCollection()
	if err != nil {
		return err
	}
	xs := eval.StateSojourns(col, cp.Phone, cp.StateConnected)
	if len(xs) < 100 {
		return fmt.Errorf("experiments: too few CONNECTED sojourns (%d)", len(xs))
	}
	tbl := report.Table{
		Title:  "Ablation — quantile-table resolution vs resampling fidelity (phone CONNECTED sojourns)",
		Header: []string{"Grid points", "K-S distance resampled-vs-original"},
	}
	r := stats.NewRNG(l.Cfg.Seed + 321)
	for _, n := range []int{11, 51, 201, 801} {
		qt := stats.NewQuantileTableN(xs, n)
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = qt.Quantile(r.OpenFloat64())
		}
		tbl.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.4f", stats.MaxYDistance(xs, ys)))
	}
	return tbl.Render(w)
}

// AblationTwoLevelVsFlat isolates the two-level machine's contribution:
// the share of total events each method emits as HO while IDLE — a
// protocol impossibility that only the flat EMM-ECM methods produce.
func AblationTwoLevelVsFlat(l *Lab, w io.Writer) error {
	tbl := report.Table{
		Title:  "Ablation — HO-in-IDLE leak (protocol violations) per method, scenario 1",
		Header: []string{"Method", "Machine", "HO (IDLE) share"},
	}
	models, err := l.Models()
	if err != nil {
		return err
	}
	for _, m := range baseline.Methods {
		gen, err := l.generatedCollection(m, 1)
		if err != nil {
			return err
		}
		total, leak := 0, 0.0
		for _, d := range cp.DeviceTypes {
			b := eval.ComputeBreakdown(gen, d)
			leak += b.Share["HO (IDLE)"] * float64(b.Total)
			total += b.Total
		}
		share := 0.0
		if total > 0 {
			share = leak / float64(total)
		}
		tbl.AddRow(m, models[m].MachineName, report.Pct(share))
	}
	return tbl.Render(w)
}

// HOIdleLeak returns each method's HO-in-IDLE share for programmatic
// checks.
func HOIdleLeak(l *Lab) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range baseline.Methods {
		gen, err := l.generatedCollection(m, 1)
		if err != nil {
			return nil, err
		}
		total, leak := 0, 0.0
		for _, d := range cp.DeviceTypes {
			b := eval.ComputeBreakdown(gen, d)
			leak += b.Share["HO (IDLE)"] * float64(b.Total)
			total += b.Total
		}
		if total > 0 {
			out[m] = leak / float64(total)
		}
	}
	return out, nil
}
