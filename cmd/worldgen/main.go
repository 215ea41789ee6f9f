// Command worldgen synthesizes a ground-truth control-plane trace from
// the behavioral world simulator — the stand-in for a carrier trace
// collection (see DESIGN.md). The output feeds cmd/fitmodel.
//
// Usage:
//
//	worldgen -ues 2000 -hours 48 -seed 1 -o world.trace
//	worldgen -ues 2000000 -hours 24 -stream -binary -o big.trace
//	worldgen -scenario scenarios/stadium-event.json -o stadium.trace
//
// With -scenario the population, window, seed, mix, and scales come
// from a scenario/1 file (see SCENARIOS.md) and the corresponding
// flags are rejected; the fault schedule is applied by cmd/stormsim,
// not here.
//
// With -stream the population is simulated and written incrementally —
// peak memory is O(UEs), not the trace size — producing byte-identical
// output to the in-memory path.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cptraffic/internal/cp"
	"cptraffic/internal/prof"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worldgen: ")
	var (
		ues     = flag.Int("ues", 2000, "population size")
		hours   = flag.Int("hours", 48, "trace duration in hours (epoch is midnight)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("o", "-", "output file ('-' for stdout)")
		binOut  = flag.Bool("binary", false, "write the compact binary trace format")
		stream  = flag.Bool("stream", false, "simulate and write incrementally (O(UEs) memory, identical output)")
		phones  = flag.Float64("phones", -1, "phone share override (with -cars, -tablets)")
		cars    = flag.Float64("cars", -1, "connected-car share override")
		tabs    = flag.Float64("tablets", -1, "tablet share override")
		scnPath = flag.String("scenario", "", "take population/window/seed/mix/scales from this scenario/1 file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	opt := world.Options{
		NumUEs:   *ues,
		Duration: cp.Millis(*hours) * cp.Hour,
		Seed:     *seed,
	}
	if *phones >= 0 || *cars >= 0 || *tabs >= 0 {
		if *phones < 0 || *cars < 0 || *tabs < 0 {
			log.Fatal("set all of -phones, -cars, -tablets or none")
		}
		opt.Mix = []float64{*phones, *cars, *tabs}
	}
	if *scnPath != "" {
		if opt.Mix != nil {
			log.Fatal("-scenario conflicts with -phones/-cars/-tablets; set population.mix in the file")
		}
		s, err := scenario.Load(*scnPath)
		if err != nil {
			log.Fatal(err)
		}
		opt = s.WorldOptions(0)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	// One output call: the streaming source and the in-memory trace go
	// through the same writers, so -stream only decides the memory.
	var src trace.EventSource
	mode := ""
	if *stream {
		src, err = world.NewSource(opt)
		mode = " (streamed)"
	} else {
		src, err = world.Generate(opt)
	}
	if err != nil {
		log.Fatal(err)
	}
	nUEs, nEvents, err := trace.WriteSource(w, src, *binOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "worldgen: %d UEs, %d events over %.1f h%s\n", nUEs, nEvents, float64(opt.Duration)/float64(cp.Hour), mode)
}
