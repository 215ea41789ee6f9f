// Command evalgen compares a synthesized trace against a real one: the
// macroscopic breakdown differences (Tables 4/11) and the microscopic
// per-UE CDF distances (Tables 5/6).
//
// Usage:
//
//	evalgen -real real.trace -syn syn.trace
//
// Each trace is collected once, in one pass: a file is scanned
// incrementally (trace.FileSource) and never held; one of the two may be
// '-', stdin, which is read whole first. A file out of canonical order is
// collected again from the trace sorted in memory, with a note on stderr.
package main

import (
	"flag"
	"log"
	"os"

	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evalgen: ")
	var (
		realPath = flag.String("real", "", "reference (real) trace ('-' for stdin)")
		synPath  = flag.String("syn", "", "synthesized trace ('-' for stdin)")
	)
	flag.Parse()
	if *realPath == "" || *synPath == "" {
		log.Fatal("-real and -syn are required")
	}
	realCol, err := eval.CollectPath(*realPath, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	synCol, err := eval.CollectPath(*synPath, log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	macro := report.Table{
		Title:  "Macroscopic — breakdown shares and differences (syn - real)",
		Header: []string{"Device", "Row", "Real", "Syn", "Diff"},
	}
	for _, d := range cp.DeviceTypes {
		r := eval.ComputeBreakdown(realCol, d)
		s := eval.ComputeBreakdown(synCol, d)
		if r.Total == 0 && s.Total == 0 {
			continue
		}
		diff := eval.BreakdownDiff(r, s)
		for _, k := range eval.BreakdownKeys {
			macro.AddRow(d.String(), k, report.Pct(r.Share[k]), report.Pct(s.Share[k]),
				report.SignedPct(diff[k]))
		}
	}
	if err := macro.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	micro := report.Table{
		Title:  "Microscopic — max y-distance between CDFs (real vs syn)",
		Header: []string{"Device", "SRV_REQ/UE", "S1_CONN_REL/UE", "CONNECTED", "IDLE"},
	}
	for _, d := range cp.DeviceTypes {
		if len(realCol.UEs(d)) == 0 {
			continue
		}
		m := eval.ComputeMicroDistances(realCol, synCol, d)
		micro.AddRow(d.String(), report.Pct(m.SrvReqPerUE), report.Pct(m.S1RelPerUE),
			report.Pct(m.Connected), report.Pct(m.Idle))
	}
	if err := micro.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	split := report.Table{
		Title:  "Activity split — inactive (<=2 events) vs active UEs, per-UE count distance",
		Header: []string{"Device", "Event", "Inactive", "Active"},
	}
	for _, d := range cp.DeviceTypes {
		if len(realCol.UEs(d)) == 0 {
			continue
		}
		for _, e := range []cp.EventType{cp.ServiceRequest, cp.S1ConnRelease} {
			in, act := eval.ActivitySplit(realCol, synCol, d, e)
			split.AddRow(d.String(), e.String(), report.Pct(in), report.Pct(act))
		}
	}
	if err := split.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
