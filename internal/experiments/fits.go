package experiments

import (
	"fmt"
	"io"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/report"
)

// Figure2 summarizes the per-device-hour event-count distributions (the
// paper's box plots) for the four dominant event types.
func Figure2(l *Lab, w io.Writer) error {
	tr, err := l.Train()
	if err != nil {
		return err
	}
	events := []cp.EventType{cp.ServiceRequest, cp.S1ConnRelease, cp.Handover, cp.TrackingAreaUpdate}
	for _, d := range cp.DeviceTypes {
		for _, e := range events {
			hc := eval.HourCounts(tr, d, e, l.Cfg.Days)
			tbl := report.Table{
				Title:  fmt.Sprintf("Figure 2 — %s per device-hour, %s (per-day averages)", e, d),
				Header: []string{"Hour", "Min", "Q1", "Median", "Mean", "Q3", "Max"},
			}
			for h := 0; h < 24; h++ {
				bs := eval.ComputeBoxStats(hc[h])
				tbl.AddRow(fmt.Sprintf("%02d", h),
					fmt.Sprintf("%.2f", bs.Min), fmt.Sprintf("%.2f", bs.Q1),
					fmt.Sprintf("%.2f", bs.Median), fmt.Sprintf("%.2f", bs.Mean),
					fmt.Sprintf("%.2f", bs.Q3), fmt.Sprintf("%.2f", bs.Max))
			}
			if err := tbl.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiurnalSwing returns peak-to-trough mean event-rate ratios per device
// type, the headline numbers of Figure 2.
func DiurnalSwing(l *Lab) (map[cp.DeviceType]float64, error) {
	tr, err := l.Train()
	if err != nil {
		return nil, err
	}
	out := map[cp.DeviceType]float64{}
	for _, d := range cp.DeviceTypes {
		hc := eval.HourCounts(tr, d, cp.ServiceRequest, l.Cfg.Days)
		peak, trough := 0.0, math.Inf(1)
		for h := 0; h < 24; h++ {
			m := eval.ComputeBoxStats(hc[h]).Mean
			if m > peak {
				peak = m
			}
			if m < trough {
				trough = m
			}
		}
		if trough <= 0 {
			trough = 1e-9
		}
		out[d] = peak / trough
	}
	return out, nil
}

// passRateTable renders one of the Tables 8/9/10.
func passRateTable(w io.Writer, title string, qs []eval.Quantity,
	rates map[eval.DistTest]map[cp.DeviceType]map[eval.Quantity]float64) error {
	header := []string{"Test", "Device"}
	for _, q := range qs {
		header = append(header, q.String())
	}
	tbl := report.Table{Title: title, Header: header}
	for t := 0; t < eval.NumDistTests; t++ {
		for _, d := range cp.DeviceTypes {
			row := []string{eval.DistTest(t).String(), d.String()}
			for _, q := range qs {
				v := rates[eval.DistTest(t)][d][q]
				if math.IsNaN(v) {
					row = append(row, "-")
				} else {
					row = append(row, report.Pct(v))
				}
			}
			tbl.AddRow(row...)
		}
	}
	return tbl.Render(w)
}

// Table8 runs the goodness-of-fit sweep without clustering.
func Table8(l *Lab, w io.Writer) error {
	col, err := l.trainCollection()
	if err != nil {
		return err
	}
	rates := eval.PassRates(col, eval.Table8Quantities(), eval.FitTestOptions{MinSamples: 30, Workers: l.Cfg.Workers})
	return passRateTable(w, "Table 8 — % of 1-hour intervals passing, no clustering",
		eval.Table8Quantities(), rates)
}

// Table9 runs the sweep with the adaptive clustering.
func Table9(l *Lab, w io.Writer) error {
	col, err := l.trainCollection()
	if err != nil {
		return err
	}
	rates := eval.PassRates(col, eval.Table8Quantities(),
		eval.FitTestOptions{Clustered: true, Cluster: l.ClusterOptions(), MinSamples: 30, Workers: l.Cfg.Workers})
	return passRateTable(w, "Table 9 — % of 1-hour intervals passing, with adaptive clustering",
		eval.Table8Quantities(), rates)
}

// Table10 runs the sweep over the nine second-level transitions.
func Table10(l *Lab, w io.Writer) error {
	col, err := l.trainCollection()
	if err != nil {
		return err
	}
	rates := eval.PassRates(col, eval.Table10Quantities(),
		eval.FitTestOptions{Clustered: true, Cluster: l.ClusterOptions(), MinSamples: 30, Workers: l.Cfg.Workers})
	return passRateTable(w, "Table 10 — % of intervals passing, second-level transitions",
		eval.Table10Quantities(), rates)
}

// PoissonPassRate returns the clustered Poisson K-S pass rate for one
// quantity, averaged over device types — the reproduction's headline
// negative result.
func PoissonPassRate(l *Lab, q eval.Quantity) (float64, error) {
	col, err := l.trainCollection()
	if err != nil {
		return 0, err
	}
	// Only well-powered units count: K-S cannot reject anything on a
	// handful of samples, and the paper's units pooled thousands.
	rates := eval.PassRates(col, []eval.Quantity{q},
		eval.FitTestOptions{Clustered: true, Cluster: l.ClusterOptions(), MinSamples: 40, Workers: l.Cfg.Workers})
	var sum float64
	n := 0
	for _, d := range cp.DeviceTypes {
		v := rates[eval.PoissonKS][d][q]
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN(), nil
	}
	return sum / float64(n), nil
}

// figure34Quantities are the four panels of Figures 3 and 4.
func figure34Quantities() []eval.Quantity {
	return []eval.Quantity{
		{Kind: eval.QStateSojourn, State: cp.StateConnected},
		{Kind: eval.QStateSojourn, State: cp.StateIdle},
		{Kind: eval.QInterArrival, Event: cp.Handover},
		{Kind: eval.QInterArrival, Event: cp.TrackingAreaUpdate},
	}
}

// Figure3 exports the variance-time curves (observed vs fitted Poisson)
// for the CONNECTED/IDLE states and HO/TAU events of phones.
func Figure3(l *Lab, w io.Writer) error {
	tr, err := l.Train()
	if err != nil {
		return err
	}
	phones := eval.UESet(tr.UEsOfType(cp.Phone))
	horizon := cp.Millis(l.Cfg.Days) * cp.Day
	for _, q := range figure34Quantities() {
		vt := eval.VarianceTimeFor(tr, phones, q, horizon)
		fmt.Fprintf(w, "# Figure 3 — variance-time, %s (phones); mean log10 gap vs Poisson = %.2f, Hurst = %.2f\n",
			q, vt.LogGap, vt.Hurst)
		scales := make([]float64, len(vt.Observed))
		obs := make([]float64, len(vt.Observed))
		ref := make([]float64, len(vt.Poisson))
		for i := range vt.Observed {
			scales[i] = vt.Observed[i].ScaleSec
			obs[i] = vt.Observed[i].NormVar
			ref[i] = vt.Poisson[i].NormVar
		}
		if err := report.Series(w, []string{"scale_s", "observed", "poisson"}, scales, obs, ref); err != nil {
			return err
		}
	}
	return nil
}

// Figure3Gaps returns the log-gap per panel for programmatic checks.
func Figure3Gaps(l *Lab) (map[string]float64, error) {
	tr, err := l.Train()
	if err != nil {
		return nil, err
	}
	phones := eval.UESet(tr.UEsOfType(cp.Phone))
	horizon := cp.Millis(l.Cfg.Days) * cp.Day
	out := map[string]float64{}
	for _, q := range figure34Quantities() {
		out[q.String()] = eval.VarianceTimeFor(tr, phones, q, horizon).LogGap
	}
	return out, nil
}

// Figure4 exports the real-vs-fitted-Poisson CDF comparisons for the
// same four quantities on phones, and prints the observed-vs-fitted
// value ranges the paper quotes.
func Figure4(l *Lab, w io.Writer) error {
	col, err := l.trainCollection()
	if err != nil {
		return err
	}
	qs := figure34Quantities()
	for i, xs := range eval.QuantitySamples(col, cp.Phone, qs) {
		q := qs[i]
		if len(xs) < 2 {
			continue
		}
		c, err := eval.CDFvsPoisson(xs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 4 — %s (phones): observed range [%.2f, %.2f] s, fitted exponential range [%.2f, %.2f] s\n",
			q, c.MinObs, c.MaxObs, c.MinFit, c.MaxFit)
		if err := report.Series(w, []string{"x", "F_observed", "F_fitted"},
			c.Sample.X, c.Sample.F, c.Fitted.F); err != nil {
			return err
		}
	}
	return nil
}

// Figure4Ranges returns (observed max / fitted max) per panel.
func Figure4Ranges(l *Lab) (map[string]float64, error) {
	col, err := l.trainCollection()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	qs := figure34Quantities()
	for i, xs := range eval.QuantitySamples(col, cp.Phone, qs) {
		q := qs[i]
		if len(xs) < 2 {
			continue
		}
		c, err := eval.CDFvsPoisson(xs)
		if err != nil {
			return nil, err
		}
		out[q.String()] = c.MaxObs / c.MaxFit
	}
	return out, nil
}

// Clusters reports the adaptive clustering statistics of §5.3: clusters
// per hour per device type and the total number of instantiated models.
func Clusters(l *Lab, w io.Writer) error {
	models, err := l.Models()
	if err != nil {
		return err
	}
	ours := models["ours"]
	tbl := report.Table{
		Title:  "§5.3 — adaptive clustering statistics (method: ours)",
		Header: []string{"Device", "Avg clusters/hour", "Personas", "Models"},
	}
	total := 0
	for _, d := range cp.DeviceTypes {
		dm := ours.Device(d)
		if dm == nil {
			continue
		}
		n := 0
		for h := range dm.Hours {
			n += len(dm.Hours[h].Clusters)
		}
		total += n
		tbl.AddRow(d.String(),
			fmt.Sprintf("%.1f", float64(n)/float64(len(dm.Hours))),
			fmt.Sprintf("%d", len(dm.Personas)),
			fmt.Sprintf("%d", n))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Total instantiated (cluster, hour, device) models: %d (paper: 20,216 at 37K-UE scale)\n\n", total)
	return err
}

// ClusterCounts returns the total model count.
func ClusterCounts(l *Lab) (int, error) {
	models, err := l.Models()
	if err != nil {
		return 0, err
	}
	return models["ours"].NumModels(), nil
}
