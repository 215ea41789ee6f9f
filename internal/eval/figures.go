package eval

import (
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// pointProcess extracts the event times (seconds) of a quantity's point
// process, pooled over the given UEs, for variance-time analysis:
// for QInterArrival quantities the occurrences of the event type, for
// QStateSojourn the completions of visits to the state.
func pointProcess(tr *trace.Trace, ues map[cp.UEID]bool, q Quantity) []float64 {
	var times []float64
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
					times = append(times, ev.T.Seconds())
				}
			}
		case QStateSojourn:
			if len(evs) == 0 {
				continue
			}
			// Completions of visits to the state: the Category-1 events
			// that leave it.
			cur := sm.InferMacroInitial(evs)
			for _, ev := range evs {
				if !sm.Category1(ev.Type) {
					continue
				}
				if next := sm.MacroAfter(ev.Type); next != cur {
					if cur == q.State {
						times = append(times, ev.T.Seconds())
					}
					cur = next
				}
			}
		}
	}
	return times
}

// VTComparison is one Figure 3 panel: the observed variance-time curve
// and the analytic curve of a Poisson process with the same rate.
type VTComparison struct {
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
// given UE subset (nil means all UEs) within [0, horizon).
func VarianceTimeFor(tr *trace.Trace, ues map[cp.UEID]bool, q Quantity, horizon cp.Millis) VTComparison {
	times := pointProcess(tr, ues, q)
	horizonSec := horizon.Seconds()
	opts := stats.VTOptions{}
	obs := stats.VarianceTime(times, horizonSec, opts)
	rate := float64(len(times)) / horizonSec
	ref := stats.PoissonVarianceTime(rate, opts)
	return VTComparison{
		Observed: obs,
		Poisson:  ref,
		LogGap:   stats.VTLogGap(obs, ref),
		Hurst:    stats.HurstVT(obs),
	}
}

// FitCDFComparison is one Figure 4 panel: the empirical CDF of the
// observed sample against the CDF of its fitted exponential, with the
// observed and expected value ranges the paper quotes ("the maximum
// sojourn time is around 2106.94 seconds, much higher than that of the
// fitted exponential distribution, i.e., 156.35 seconds").
type FitCDFComparison struct {
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

// UESet builds the membership set of a UE id list.
func UESet(ues []cp.UEID) map[cp.UEID]bool {
	out := make(map[cp.UEID]bool, len(ues))
	for _, ue := range ues {
		out[ue] = true
	}
	return out
}
