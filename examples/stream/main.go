// Streaming: synthesize a large population without materializing the
// trace — per-UE generators advance a time window at a time and events
// flow straight into the simulated core in time order with O(UEs) memory.
// This is how to drive a live MCN with populations whose full trace would
// not fit.
//
//	go run ./examples/stream
package main

import (
	"fmt"
	"log"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/mcn"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

func main() {
	log.SetFlags(0)

	train, err := world.Generate(world.Options{NumUEs: 500, Duration: cp.Day, Seed: 41})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Fit(train, core.FitOptions{Cluster: cluster.Options{ThetaN: 40}})
	if err != nil {
		log.Fatal(err)
	}

	mme := mcn.New(sm.LTE2Level())
	var processed int
	var lastReport cp.Millis
	fmt.Println("streaming a 30,000-UE busy hour into the MME (10-minute checkpoints):")
	src, err := core.NewSource(model, core.GenOptions{
		NumUEs:    30000,
		StartHour: 18,
		Duration:  cp.Hour,
		Seed:      11,
	})
	if err != nil {
		log.Fatal(err)
	}
	err = src.ScanBatches(trace.Unbatch(func(ev trace.Event) error {
		mme.Process(ev)
		processed++
		if ev.T-lastReport >= 10*cp.Minute {
			lastReport = ev.T
			s := mme.Stats()
			fmt.Printf("  t=%4.0f min: %8d events, %5d connected now (peak %5d), %d violations\n",
				(ev.T-18*cp.Hour).Seconds()/60, processed,
				s.Connected, s.PeakConnected, s.Violations)
		}
		return nil
	}))
	if err != nil {
		log.Fatal(err)
	}
	s := mme.Stats()
	fmt.Printf("\ndone: %d events; per-type transactions:\n", s.Processed)
	for _, e := range cp.EventTypes {
		fmt.Printf("  %-12s %8d\n", e, s.Transactions[e])
	}
	fmt.Printf("protocol violations observed by the core: %d\n", s.Violations)
}
