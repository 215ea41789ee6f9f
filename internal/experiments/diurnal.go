package experiments

import (
	"fmt"
	"io"
	"math"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/report"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// diurnalResult is what the diurnal fidelity table prints: the hourly
// event volumes of a held-out world day and of a generated one, and the
// Pearson correlation of the two curves.
type diurnalResult struct {
	ues       int
	real, gen [24]float64
	corr      float64
}

// diurnal synthesizes 24 hours from hour 0 with the Ours model and
// simulates a held-out world day of as many UEs.
func diurnal(l *Lab) (diurnalResult, error) {
	res := diurnalResult{ues: l.Cfg.Scenario1UEs}
	models, err := l.Models()
	if err != nil {
		return res, err
	}
	gen, err := core.Generate(models["ours"], core.GenOptions{
		NumUEs:    res.ues,
		StartHour: 0,
		Duration:  cp.Day,
		Seed:      l.Cfg.Seed + 1313,
		Workers:   l.Cfg.Workers,
	})
	if err != nil {
		return res, err
	}
	real, err := world.Generate(world.Options{
		NumUEs:   res.ues,
		Duration: cp.Day,
		Seed:     l.Cfg.Seed + 1414,
		Workers:  l.Cfg.Workers,
	})
	if err != nil {
		return res, err
	}
	res.real, res.gen = hourlyVolumes(real), hourlyVolumes(gen)
	res.corr = pearson(res.real[:], res.gen[:])
	return res, nil
}

// DiurnalFidelity validates what the paper's one-hour scenarios do not:
// the generator driven over a whole day, hour after hour (§7's "runs the
// per-hour two-level state machine one after another"), must reproduce
// the diurnal load curve. It reports the hourly event volumes of the
// generated and a real day, their Pearson correlation, and the per-hour
// relative errors.
func DiurnalFidelity(l *Lab, w io.Writer) error {
	res, err := diurnal(l)
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:  fmt.Sprintf("Diurnal fidelity — 24h generation from hour 0, %d UEs (hourly volume correlation %.3f)", res.ues, res.corr),
		Header: []string{"Hour", "Real", "Generated", "Rel. error"},
	}
	for h := 0; h < 24; h++ {
		relErr := math.NaN()
		if res.real[h] > 0 {
			relErr = (res.gen[h] - res.real[h]) / res.real[h]
		}
		tbl.AddRow(fmt.Sprintf("%02d", h),
			fmt.Sprintf("%.0f", res.real[h]),
			fmt.Sprintf("%.0f", res.gen[h]),
			report.SignedPct(relErr))
	}
	return tbl.Render(w)
}

// hourlyVolumes tallies a trace's events per hour-of-day.
func hourlyVolumes(tr *trace.Trace) [24]float64 {
	var out [24]float64
	for _, e := range tr.Events {
		out[e.T.HourOfDay()]++
	}
	return out
}

// pearson computes the correlation coefficient of two equal-length
// series.
func pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return math.NaN()
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var saa, sbb, sab float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		saa += da * da
		sbb += db * db
		sab += da * db
	}
	if saa == 0 || sbb == 0 {
		return math.NaN()
	}
	return sab / math.Sqrt(saa*sbb)
}
