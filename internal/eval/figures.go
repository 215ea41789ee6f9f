package eval

import (
	"fmt"
	"io"

	"cptraffic/internal/cp"
	"cptraffic/internal/report"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// Figure34Quantities are the four panels of Figures 3 and 4, in order:
// the CONNECTED and IDLE sojourns and the HO and TAU inter-arrivals.
func Figure34Quantities() []Quantity {
	return []Quantity{
		{Kind: QStateSojourn, State: cp.StateConnected},
		{Kind: QStateSojourn, State: cp.StateIdle},
		{Kind: QInterArrival, Event: cp.Handover},
		{Kind: QInterArrival, Event: cp.TrackingAreaUpdate},
	}
}

// pointProcess extracts the event times of a quantity's point
// process, pooled over the given UEs, for variance-time analysis:
// for QInterArrival quantities the occurrences of the event type, for
// QStateSojourn the completions of visits to the state — the ExitTop
// moves of the UE's walk that leave it.
func pointProcess(tr *trace.Trace, ues map[cp.UEID]bool, q Quantity) []cp.Millis {
	var times []cp.Millis
	per := tr.PerUE()
	for _, ue := range tr.UEs() {
		evs := per[ue]
		if ues != nil && !ues[ue] {
			continue
		}
		switch q.Kind {
		case QInterArrival:
			for _, ev := range evs {
				if ev.Type == q.Event {
					times = append(times, ev.T)
				}
			}
		case QStateSojourn:
			walk := sm.NewWalk(lte)
			step := func(ready []trace.Event) {
				for _, ev := range ready {
					if mv := walk.Step(ev); mv.Exit == sm.ExitTop && mv.Top == q.State {
						times = append(times, ev.T)
					}
				}
			}
			for _, ev := range evs {
				ready, _ := walk.Push(ev)
				step(ready)
			}
			step(walk.Finish())
		}
	}
	return times
}

// VTComparison is one Figure 3 panel: the observed variance-time curve
// and the analytic curve of a Poisson process with the same rate.
type VTComparison struct {
	Q        Quantity // the panel's quantity
	Observed []stats.VTPoint
	Poisson  []stats.VTPoint
	// LogGap is the mean log10 gap between the curves (positive:
	// burstier than Poisson).
	LogGap float64
	// Hurst is the self-similarity parameter estimated from the
	// observed curve's slope (0.5 = Poisson-like, towards 1 =
	// long-range dependent).
	Hurst float64
}

// VarianceTimeFor computes a Figure 3 panel for one quantity over the
// given UE subset (nil means all UEs) within the window [lo, hi).
func VarianceTimeFor(tr *trace.Trace, ues map[cp.UEID]bool, q Quantity, lo, hi cp.Millis) VTComparison {
	times := pointProcess(tr, ues, q)
	obs := stats.VarianceTime(times, lo, hi)
	ref := stats.PoissonVarianceTime(float64(len(times)) / (hi - lo).Seconds())
	return VTComparison{
		Q:        q,
		Observed: obs,
		Poisson:  ref,
		LogGap:   stats.VTLogGap(obs, ref),
		Hurst:    stats.HurstVT(obs),
	}
}

// Figure3 computes the Figure 3 panels, one per Figure34Quantities
// entry, of the phones of tr within the window [lo, hi): the curves are
// binned from lo, so a trace shifted with its window reads the same.
func Figure3(tr *trace.Trace, lo, hi cp.Millis) []VTComparison {
	phones := UESet(tr.UEsOfType(cp.Phone))
	qs := Figure34Quantities()
	out := make([]VTComparison, len(qs))
	for i, q := range qs {
		out[i] = VarianceTimeFor(tr, phones, q, lo, hi)
	}
	return out
}

// WriteFigure3 writes Figure 3 panels: per panel a "#" line with its
// gap and Hurst parameter, then the observed and Poisson curves as a
// series.
func WriteFigure3(w io.Writer, panels []VTComparison) error {
	for _, vt := range panels {
		if _, err := fmt.Fprintf(w, "# Figure 3 — variance-time, %s (phones); mean log10 gap vs Poisson = %.2f, Hurst = %.2f\n",
			vt.Q, vt.LogGap, vt.Hurst); err != nil {
			return err
		}
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

// FitCDFComparison is one Figure 4 panel: the empirical CDF of the
// observed sample against the CDF of its fitted exponential, with the
// observed and expected value ranges the paper quotes ("the maximum
// sojourn time is around 2106.94 seconds, much higher than that of the
// fitted exponential distribution, i.e., 156.35 seconds").
type FitCDFComparison struct {
	Q      Quantity // the panel's quantity, set by Figure4
	Sample CDFSeries
	Fitted CDFSeries
	// Observed range.
	MinObs, MaxObs float64
	// Expected range of a fitted-distribution sample of the same size
	// (order-statistic medians: F^-1(1/(n+1)) and F^-1(n/(n+1))).
	MinFit, MaxFit float64
}

// CDFvsPoisson builds a Figure 4 panel from a sample.
func CDFvsPoisson(xs []float64) (FitCDFComparison, error) {
	fit, err := stats.FitExponential(xs)
	if err != nil {
		return FitCDFComparison{}, err
	}
	sample := ComputeCDF(xs)
	fitted := CDFSeries{X: make([]float64, len(sample.X)), F: make([]float64, len(sample.X))}
	for i, x := range sample.X {
		fitted.X[i] = x
		fitted.F[i] = fit.CDF(x)
	}
	n := float64(len(xs))
	e := stats.NewEmpirical(xs)
	return FitCDFComparison{
		Sample: sample,
		Fitted: fitted,
		MinObs: e.Quantile(0),
		MaxObs: e.Quantile(1),
		MinFit: fit.Quantile(1 / (n + 1)),
		MaxFit: fit.Quantile(n / (n + 1)),
	}, nil
}

// Figure4 computes the Figure 4 panels of the phones of col: one per
// Figure34Quantities entry that has at least two samples.
func Figure4(col *Collection) ([]FitCDFComparison, error) {
	qs := Figure34Quantities()
	var out []FitCDFComparison
	for i, xs := range QuantitySamples(col, cp.Phone, qs) {
		if len(xs) < 2 {
			continue
		}
		c, err := CDFvsPoisson(xs)
		if err != nil {
			return nil, err
		}
		c.Q = qs[i]
		out = append(out, c)
	}
	return out, nil
}

// WriteFigure4 writes Figure 4 panels: per panel a "#" line with the
// observed and fitted value ranges, then both CDFs as a series.
func WriteFigure4(w io.Writer, panels []FitCDFComparison) error {
	for _, c := range panels {
		if _, err := fmt.Fprintf(w, "# Figure 4 — %s (phones): observed range [%.2f, %.2f] s, fitted exponential range [%.2f, %.2f] s\n",
			c.Q, c.MinObs, c.MaxObs, c.MinFit, c.MaxFit); err != nil {
			return err
		}
		if err := report.Series(w, []string{"x", "F_observed", "F_fitted"},
			c.Sample.X, c.Sample.F, c.Fitted.F); err != nil {
			return err
		}
	}
	return nil
}

// UESet builds the membership set of a UE id list.
func UESet(ues []cp.UEID) map[cp.UEID]bool {
	out := make(map[cp.UEID]bool, len(ues))
	for _, ue := range ues {
		out[ue] = true
	}
	return out
}
