// Command evalfit runs the paper's distribution-fitting analysis on a
// trace: the Table 8/9/10 goodness-of-fit sweeps and the Figure 3/4
// burstiness and tail analyses.
//
// Usage:
//
//	evalfit -i world.trace -exp table8
//	evalfit -i world.trace -exp fig3 > fig3.csv
//
// The tables and fig4 read one collection of the per-UE quantities,
// gathered in a single pass: a trace file is scanned incrementally
// (trace.FileSource) and never held, stdin (-i -) is read whole first. A
// file out of canonical order is collected again from the trace sorted
// in memory, with a note on stderr. fig3 reads the whole trace — its
// variance-time curves need the event series.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/report"
	"cptraffic/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evalfit: ")
	var (
		in      = flag.String("i", "-", "input trace ('-' for stdin)")
		exp     = flag.String("exp", "table8", "experiment: table8 | table9 | table10 | fig3 | fig4")
		thetaN  = flag.Int("thetan", 100, "clustering θn for table9/table10")
		minN    = flag.Int("minsamples", 8, "minimum pooled sample size per tested unit")
		workers = flag.Int("workers", 0, "sweep worker count (0 = all CPUs); never changes the rates")
	)
	flag.Parse()

	switch *exp {
	case "table8":
		qs := eval.Table8Quantities()
		renderRates("Table 8 — no clustering", qs,
			eval.PassRates(collect(*in), qs, eval.FitTestOptions{MinSamples: *minN, Workers: *workers}))
	case "table9":
		qs := eval.Table8Quantities()
		renderRates("Table 9 — with adaptive clustering", qs,
			eval.PassRates(collect(*in), qs, eval.FitTestOptions{
				Clustered: true, Cluster: cluster.Options{ThetaN: *thetaN},
				MinSamples: *minN, Workers: *workers}))
	case "table10":
		qs := eval.Table10Quantities()
		renderRates("Table 10 — second-level transitions", qs,
			eval.PassRates(collect(*in), qs, eval.FitTestOptions{
				Clustered: true, Cluster: cluster.Options{ThetaN: *thetaN},
				MinSamples: *minN, Workers: *workers}))
	case "fig3":
		full, err := readTrace(*in)
		if err != nil {
			log.Fatal(err)
		}
		_, hi := full.Span()
		for _, q := range []eval.Quantity{
			{Kind: eval.QStateSojourn, State: cp.StateConnected},
			{Kind: eval.QStateSojourn, State: cp.StateIdle},
			{Kind: eval.QInterArrival, Event: cp.Handover},
			{Kind: eval.QInterArrival, Event: cp.TrackingAreaUpdate},
		} {
			phones := eval.UESet(full.UEsOfType(cp.Phone))
			vt := eval.VarianceTimeFor(full, phones, q, hi)
			fmt.Printf("# Figure 3 — %s (phones), mean log10 gap = %.2f\n", q, vt.LogGap)
			scales := make([]float64, len(vt.Observed))
			obs := make([]float64, len(vt.Observed))
			ref := make([]float64, len(vt.Poisson))
			for i := range vt.Observed {
				scales[i] = vt.Observed[i].ScaleSec
				obs[i] = vt.Observed[i].NormVar
				ref[i] = vt.Poisson[i].NormVar
			}
			if err := report.Series(os.Stdout, []string{"scale_s", "observed", "poisson"}, scales, obs, ref); err != nil {
				log.Fatal(err)
			}
		}
	case "fig4":
		qs := []eval.Quantity{
			{Kind: eval.QStateSojourn, State: cp.StateConnected},
			{Kind: eval.QStateSojourn, State: cp.StateIdle},
			{Kind: eval.QInterArrival, Event: cp.Handover},
			{Kind: eval.QInterArrival, Event: cp.TrackingAreaUpdate},
		}
		for i, xs := range eval.QuantitySamples(collect(*in), cp.Phone, qs) {
			q := qs[i]
			if len(xs) < 2 {
				continue
			}
			c, err := eval.CDFvsPoisson(xs)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("# Figure 4 — %s (phones): observed [%.2f, %.2f] s vs fitted [%.2f, %.2f] s\n",
				q, c.MinObs, c.MaxObs, c.MinFit, c.MaxFit)
			if err := report.Series(os.Stdout, []string{"x", "F_observed", "F_fitted"},
				c.Sample.X, c.Sample.F, c.Fitted.F); err != nil {
				log.Fatal(err)
			}
		}
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

// collect gathers the trace's per-UE quantities in one pass: a file is
// scanned incrementally, stdin read whole. A file out of canonical order
// is collected again from the trace sorted in memory.
func collect(path string) *eval.Collection {
	var src trace.EventSource
	var err error
	if path == "-" {
		src, err = readTrace(path)
	} else {
		src, err = trace.NewFileSource(path)
	}
	if err != nil {
		log.Fatal(err)
	}
	col, err := eval.Collect(src)
	if errors.Is(err, trace.ErrNotCanonical) {
		log.Printf("%v; collecting from the trace sorted in memory", err)
		var tr *trace.Trace
		if tr, err = readTrace(path); err == nil {
			tr.Sort()
			col, err = eval.Collect(tr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	return col
}

// readTrace reads the whole trace at path ('-' for stdin) into memory.
func readTrace(path string) (*trace.Trace, error) {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadAuto(r)
}

// renderRates prints one sweep's table. Devices absent from the trace
// have no rate entries at all, so presence is read off the rates map
// instead of needing the trace.
func renderRates(title string, qs []eval.Quantity,
	rates map[eval.DistTest]map[cp.DeviceType]map[eval.Quantity]float64) {
	header := []string{"Test", "Device"}
	for _, q := range qs {
		header = append(header, q.String())
	}
	tbl := report.Table{Title: title, Header: header}
	for t := 0; t < eval.NumDistTests; t++ {
		for _, d := range cp.DeviceTypes {
			if len(rates[eval.DistTest(t)][d]) == 0 {
				continue
			}
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
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
