// MCN load test: the paper's primary use case (§3.1) — drive a mobile
// core network with synthesized control traffic at increasing population
// scales and measure the signaling load the core sustains.
//
//	go run ./examples/mcnloadtest
package main

import (
	"fmt"
	"log"
	"time"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/mcn"
	"cptraffic/internal/sm"
	"cptraffic/internal/world"
)

func main() {
	log.SetFlags(0)

	train, err := world.Generate(world.Options{NumUEs: 600, Duration: cp.Day, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Fit(train, core.FitOptions{Cluster: cluster.Options{ThetaN: 40}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("scaling the UE population against a simulated MME (busy hour 18):")
	fmt.Printf("%10s %12s %14s %12s %12s %11s\n",
		"UEs", "events", "events/s avg", "peak conn.", "violations", "drive time")
	for _, ues := range []int{1000, 5000, 20000} {
		tr, err := core.Generate(model, core.GenOptions{
			NumUEs:    ues,
			StartHour: 18,
			Duration:  cp.Hour,
			Seed:      3,
		})
		if err != nil {
			log.Fatal(err)
		}
		mme := mcn.New(sm.LTE2Level())
		start := time.Now()
		stats := mme.ProcessTrace(tr)
		elapsed := time.Since(start)
		fmt.Printf("%10d %12d %14.1f %12d %12d %11v\n",
			ues, stats.Processed, float64(stats.Processed)/3600,
			stats.PeakConnected, stats.Violations, elapsed.Round(time.Millisecond))
	}

	fmt.Println("\nevery synthesized event carries its owner UE, so the MME tracks")
	fmt.Println("per-UE EMM/ECM state transitions exactly as a production core would.")

	// Horizontal scaling: shard 20,000 UEs across an MME pool and see
	// how evenly realistic heavy-tailed traffic spreads.
	tr, err := core.Generate(model, core.GenOptions{
		NumUEs: 20000, StartHour: 18, Duration: cp.Hour, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nUE-affinity sharding across an MME pool (20,000 UEs):")
	for _, n := range []int{2, 4, 8} {
		pool, err := mcn.NewPool(n, sm.LTE2Level())
		if err != nil {
			log.Fatal(err)
		}
		st := pool.ProcessTrace(tr)
		fmt.Printf("  %d instances: total imbalance %.3f, busiest-minute imbalance %.3f\n",
			n, st.Imbalance, st.PeakImbalance)
	}
}
