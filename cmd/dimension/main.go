// Command dimension sizes a mobile core for a control-plane trace: it
// replays the trace through a FIFO queueing model of the five EPC
// network functions and either reports per-NF utilization/delays for a
// given capacity, or finds the smallest capacities meeting a p99
// queueing-delay target.
//
// Usage:
//
//	dimension -i syn.trace -p99 0.05            # suggest capacities
//	dimension -i syn.trace -rate 500            # evaluate a uniform rate
//	dimension -scenario scenarios/stadium-event.json
//
// With -scenario the trace is simulated internally from a scenario/1
// file (see SCENARIOS.md) with its SA share's TAU events filtered; the
// scenario's explicit capacity block, when present, is evaluated,
// otherwise capacities are suggested for the -p99 target. The fault
// schedule is ignored here — dimension sizes the healthy core; replay
// faults with cmd/stormsim.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cptraffic/internal/mcn"
	"cptraffic/internal/report"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dimension: ")
	var (
		in      = flag.String("i", "-", "input trace ('-' for stdin)")
		p99     = flag.Float64("p99", 0.05, "target p99 queueing delay in seconds (suggest mode)")
		rate    = flag.Float64("rate", 0, "evaluate this uniform per-NF rate instead of suggesting")
		scnPath = flag.String("scenario", "", "simulate this scenario/1 file instead of reading a trace")
	)
	flag.Parse()

	var tr *trace.Trace
	var scnCap *mcn.Capacity
	if *scnPath != "" {
		if *rate > 0 {
			log.Fatal("-scenario conflicts with -rate; set a capacity block in the file")
		}
		s, err := scenario.Load(*scnPath)
		if err != nil {
			log.Fatal(err)
		}
		tr, err = scenario.Simulate(s, 0)
		if err != nil {
			log.Fatal(err)
		}
		tr = s.FilterSA(tr)
		if s.Capacity != nil {
			cfg, err := s.StormConfig()
			if err != nil {
				log.Fatal(err)
			}
			scnCap = &cfg.Capacity
		}
		fmt.Printf("Scenario %s: %d UEs, %d events\n\n", s.Name, tr.NumUEs(), tr.Len())
	} else {
		var err error
		tr, err = trace.ReadPath(*in)
		if err != nil {
			log.Fatal(err)
		}
	}
	tr.Sort()

	var cap mcn.Capacity
	var err error
	if scnCap != nil {
		cap = *scnCap
		fmt.Printf("Evaluating the scenario's capacity block\n\n")
	} else if *rate > 0 {
		for n := range cap {
			cap[n] = *rate
		}
		fmt.Printf("Evaluating uniform capacity %.1f tx/s per NF\n\n", *rate)
	} else {
		cap, err = mcn.SuggestCapacity(tr, *p99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Suggested capacities for p99 queueing delay <= %.0f ms:\n\n", *p99*1000)
	}

	rep, err := mcn.Provision(tr, cap)
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.Table{
		Header: []string{"NF", "Capacity tx/s", "Transactions", "Utilization", "Mean delay", "p99 delay", "Max delay"},
	}
	for n := 0; n < mcn.NumNFs; n++ {
		p := rep.PerNF[n]
		tbl.AddRow(mcn.NF(n).String(),
			fmt.Sprintf("%.1f", cap[n]),
			fmt.Sprintf("%d", p.Transactions),
			fmt.Sprintf("%.1f%%", 100*p.Utilization),
			fmt.Sprintf("%.1f ms", 1000*p.MeanDelay),
			fmt.Sprintf("%.1f ms", 1000*p.P99Delay),
			fmt.Sprintf("%.1f ms", 1000*p.MaxDelay))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
