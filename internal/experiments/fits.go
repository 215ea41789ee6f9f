package experiments

import (
	"fmt"
	"io"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/report"
)

// figure2Events are the four dominant event types Figure 2 plots.
var figure2Events = [...]cp.EventType{cp.ServiceRequest, cp.S1ConnRelease, cp.Handover, cp.TrackingAreaUpdate}

// figure2Boxes are Figure 2's box statistics, by device type, event type
// (figure2Events) and hour of day.
type figure2Boxes [cp.NumDeviceTypes][len(figure2Events)][24]eval.BoxStats

// figure2 computes the per-device-hour event-count distributions of the
// training collection (per-day averages).
func figure2(l *Lab) (*figure2Boxes, error) {
	col, err := l.trainCollection()
	if err != nil {
		return nil, err
	}
	var out figure2Boxes
	for _, d := range cp.DeviceTypes {
		for i, e := range figure2Events {
			hc := eval.HourCounts(col, d, e)
			for h := range hc {
				out[d][i][h] = eval.ComputeBoxStats(hc[h])
			}
		}
	}
	return &out, nil
}

// Figure2 summarizes the per-device-hour event-count distributions (the
// paper's box plots) for the four dominant event types.
func Figure2(l *Lab, w io.Writer) error {
	boxes, err := figure2(l)
	if err != nil {
		return err
	}
	for _, d := range cp.DeviceTypes {
		for i, e := range figure2Events {
			tbl := report.Table{
				Title:  fmt.Sprintf("Figure 2 — %s per device-hour, %s (per-day averages)", e, d),
				Header: []string{"Hour", "Min", "Q1", "Median", "Mean", "Q3", "Max"},
			}
			for h, bs := range boxes[d][i] {
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

// passRates runs the goodness-of-fit sweep of Tables 8-10 over the
// training collection: one UE group per device type and hour, or the
// adaptive clusters when clustered. A unit with fewer than minSamples
// pooled samples is not tested.
func passRates(l *Lab, qs []eval.Quantity, clustered bool, minSamples int) (map[eval.DistTest]map[cp.DeviceType]map[eval.Quantity]float64, error) {
	col, err := l.trainCollection()
	if err != nil {
		return nil, err
	}
	opt := eval.FitTestOptions{MinSamples: minSamples, Workers: l.Cfg.Workers}
	if clustered {
		opt.Clustered, opt.Cluster = true, l.ClusterOptions()
	}
	return eval.PassRates(col, qs, opt), nil
}

// sweepTable writes one of Tables 8-10: the sweep over units of at least
// 30 samples.
func sweepTable(l *Lab, w io.Writer, title string, qs []eval.Quantity, clustered bool) error {
	rates, err := passRates(l, qs, clustered, 30)
	if err != nil {
		return err
	}
	return eval.WritePassRates(w, title, qs, rates)
}

// Table8 runs the goodness-of-fit sweep without clustering.
func Table8(l *Lab, w io.Writer) error {
	return sweepTable(l, w, "Table 8 — % of 1-hour intervals passing, no clustering", eval.Table8Quantities(), false)
}

// Table9 runs the sweep with the adaptive clustering.
func Table9(l *Lab, w io.Writer) error {
	return sweepTable(l, w, "Table 9 — % of 1-hour intervals passing, with adaptive clustering", eval.Table8Quantities(), true)
}

// Table10 runs the sweep over the nine second-level transitions.
func Table10(l *Lab, w io.Writer) error {
	return sweepTable(l, w, "Table 10 — % of intervals passing, second-level transitions", eval.Table10Quantities(), true)
}

// PoissonPassRate returns the clustered Poisson K-S pass rate for one
// quantity, averaged over device types — the reproduction's headline
// negative result.
func PoissonPassRate(l *Lab, q eval.Quantity) (float64, error) {
	// Only well-powered units count: K-S cannot reject anything on a
	// handful of samples, and the paper's units pooled thousands.
	rates, err := passRates(l, []eval.Quantity{q}, true, 40)
	if err != nil {
		return 0, err
	}
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

// figure3 computes the variance-time panels (observed vs fitted Poisson)
// of the training trace's phones over its whole span.
func figure3(l *Lab) ([]eval.VTComparison, error) {
	tr, err := l.Train()
	if err != nil {
		return nil, err
	}
	return eval.Figure3(tr, 0, cp.Millis(l.Cfg.Days)*cp.Day), nil
}

// Figure3 exports the variance-time curves (observed vs fitted Poisson)
// for the CONNECTED/IDLE states and HO/TAU events of phones.
func Figure3(l *Lab, w io.Writer) error {
	panels, err := figure3(l)
	if err != nil {
		return err
	}
	return eval.WriteFigure3(w, panels)
}

// figure4 computes the real-vs-fitted-Poisson CDF panels of the training
// collection's phones.
func figure4(l *Lab) ([]eval.FitCDFComparison, error) {
	col, err := l.trainCollection()
	if err != nil {
		return nil, err
	}
	return eval.Figure4(col)
}

// Figure4 exports the real-vs-fitted-Poisson CDF comparisons for the
// same four quantities on phones, and prints the observed-vs-fitted
// value ranges the paper quotes.
func Figure4(l *Lab, w io.Writer) error {
	panels, err := figure4(l)
	if err != nil {
		return err
	}
	return eval.WriteFigure4(w, panels)
}

// clusterRow is one device type's row of the §5.3 statistics.
type clusterRow struct {
	dev      cp.DeviceType
	perHour  float64 // clusters per hour, averaged over the hours
	personas int
	models   int
}

// clusters computes the adaptive clustering statistics of the Ours
// model: a row per device type and the total number of instantiated
// models.
func clusters(l *Lab) (rows []clusterRow, total int, err error) {
	models, err := l.Models()
	if err != nil {
		return nil, 0, err
	}
	ours := models["ours"]
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
		rows = append(rows, clusterRow{dev: d, perHour: float64(n) / float64(len(dm.Hours)), personas: len(dm.Personas), models: n})
	}
	return rows, total, nil
}

// Clusters reports the adaptive clustering statistics of §5.3: clusters
// per hour per device type and the total number of instantiated models.
func Clusters(l *Lab, w io.Writer) error {
	rows, total, err := clusters(l)
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:  "§5.3 — adaptive clustering statistics (method: ours)",
		Header: []string{"Device", "Avg clusters/hour", "Personas", "Models"},
	}
	for _, r := range rows {
		tbl.AddRow(r.dev.String(),
			fmt.Sprintf("%.1f", r.perHour),
			fmt.Sprintf("%d", r.personas),
			fmt.Sprintf("%d", r.models))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Total instantiated (cluster, hour, device) models: %d (paper: 20,216 at 37K-UE scale)\n\n", total)
	return err
}
