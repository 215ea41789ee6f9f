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
// variance-time curves need the event series, binned over the trace's
// own window, from the hour of its first event to its last event.
package main

import (
	"flag"
	"log"
	"os"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
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

	opt := eval.FitTestOptions{MinSamples: *minN, Workers: *workers}
	clustered := opt
	clustered.Clustered, clustered.Cluster = true, cluster.Options{ThetaN: *thetaN}
	var err error
	switch *exp {
	case "table8":
		err = writeRates(*in, "Table 8 — no clustering", eval.Table8Quantities(), opt)
	case "table9":
		err = writeRates(*in, "Table 9 — with adaptive clustering", eval.Table8Quantities(), clustered)
	case "table10":
		err = writeRates(*in, "Table 10 — second-level transitions", eval.Table10Quantities(), clustered)
	case "fig3":
		full, rerr := trace.ReadPath(*in)
		if rerr != nil {
			log.Fatal(rerr)
		}
		lo, hi := full.Span()
		err = eval.WriteFigure3(os.Stdout, eval.Figure3(full, lo-lo%cp.Hour, hi))
	case "fig4":
		panels, ferr := eval.Figure4(collect(*in))
		if ferr != nil {
			log.Fatal(ferr)
		}
		err = eval.WriteFigure4(os.Stdout, panels)
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// collect is eval.CollectPath, fatal on error.
func collect(path string) *eval.Collection {
	col, err := eval.CollectPath(path, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	return col
}

// writeRates runs one pass-rate sweep over the trace at path and writes
// its table.
func writeRates(path, title string, qs []eval.Quantity, opt eval.FitTestOptions) error {
	return eval.WritePassRates(os.Stdout, title, qs, eval.PassRates(collect(path), qs, opt))
}
