// Quickstart: the full pipeline in one program — simulate a ground-truth
// world, fit the paper's two-level semi-Markov model, synthesize a busy
// hour for a 10x larger population, and check the macroscopic fidelity.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/world"
)

func main() {
	log.SetFlags(0)

	// 1. A day in the life of 800 UEs — the stand-in for a carrier trace.
	train, err := world.Generate(world.Options{NumUEs: 800, Duration: cp.Day, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world:     %d UEs emitted %d control events over 24 h\n",
		train.NumUEs(), train.Len())

	// 2. Fit the paper's model: two-level machine, empirical CDF
	//    sojourns, adaptive clustering.
	model, err := core.Fit(train, core.FitOptions{
		Cluster: cluster.Options{ThetaN: 40},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fit:       %d (cluster, hour, device) semi-Markov models\n", model.NumModels())

	// 3. Synthesize the 18:00 busy hour for a 10x larger population.
	syn, err := core.Generate(model, core.GenOptions{
		NumUEs:    8000,
		StartHour: 18,
		Duration:  cp.Hour,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generate:  %d UEs -> %d events in the busy hour\n", syn.NumUEs(), syn.Len())

	// 4. Compare the synthesized breakdown against a held-out world draw.
	held, err := world.Generate(world.Options{NumUEs: 8000, Duration: 19 * cp.Hour, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	real18, err := eval.Collect(held.Slice(18*cp.Hour, 19*cp.Hour))
	if err != nil {
		log.Fatal(err)
	}
	synCol, err := eval.Collect(syn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-device max |breakdown difference| vs held-out real traffic:")
	for _, d := range cp.DeviceTypes {
		rb := eval.ComputeBreakdown(real18, d)
		sb := eval.ComputeBreakdown(synCol, d)
		fmt.Printf("  %-7s %5.1f%%  (real %d events, synthesized %d)\n",
			d, 100*eval.MaxAbsDiff(eval.BreakdownDiff(rb, sb)), rb.Total, sb.Total)
	}
	fmt.Println("\nHO (IDLE) in the synthesized trace (must be 0 — the two-level machine forbids it):")
	for _, d := range cp.DeviceTypes {
		fmt.Printf("  %-7s %.2f%%\n", d, 100*eval.ComputeBreakdown(synCol, d).Share["HO (IDLE)"])
	}
}
