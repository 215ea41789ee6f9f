// Command traffgen synthesizes a control-plane trace from a fitted model
// for any UE population size, optionally after adapting the model to 5G
// NSA or SA (paper §6-7).
//
// Usage:
//
//	traffgen -model model.json -ues 380000 -start 18 -hours 1 -o syn.trace
//	traffgen -model model.json -nextg sa -ues 10000 -hours 24 -o sa.trace
//	traffgen -model model.json -ues 5000000 -hours 1 -stream -binary -o big.trace
//	traffgen -model model.json -scenario scenarios/iot-firmware-wave.json -o wave.trace
//
// With -scenario the population, window, seed, and 4G/5G split come
// from a scenario/1 file (see SCENARIOS.md): a sa_share of s generates
// round(s*N) UEs from the SA-adapted model (seeded independently, ids
// above the LTE block) and merges them with the LTE population. The
// scenario's mobility/activity scales and device mix apply only to the
// behavioral world simulator and are ignored here — the fitted model
// carries its own rates and mix.
//
// With -stream the per-UE generators are advanced and written a time
// window at a time — peak memory is O(UEs), not the trace size —
// producing byte-identical output to the in-memory path.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/fiveg"
	"cptraffic/internal/prof"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traffgen: ")
	var (
		modelPath = flag.String("model", "", "fitted model JSON (required)")
		ues       = flag.Int("ues", 10000, "synthetic population size")
		start     = flag.Int("start", 0, "starting hour-of-day H")
		hours     = flag.Int("hours", 1, "trace duration in hours")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "concurrent per-UE generators (0 = GOMAXPROCS)")
		nextg     = flag.String("nextg", "", "adapt to NextG first: '', 'nsa' or 'sa'")
		scnPath   = flag.String("scenario", "", "take population/window/seed/sa_share from this scenario/1 file")
		hoFactor  = flag.Float64("hofactor", 0, "handover scaling override (0 = paper default)")
		out       = flag.String("o", "-", "output trace ('-' for stdout)")
		binOut    = flag.Bool("binary", false, "write the compact binary trace format")
		stream    = flag.Bool("stream", false, "generate and write incrementally (O(UEs) memory, identical output)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *modelPath == "" {
		log.Fatal("-model is required")
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	ms, err := core.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	var scn *scenario.Scenario
	if *scnPath != "" {
		if *nextg != "" {
			log.Fatal("-scenario conflicts with -nextg; set sa_share in the file")
		}
		if *stream {
			log.Fatal("-scenario does not support -stream (the SA merge is in-memory)")
		}
		if scn, err = scenario.Load(*scnPath); err != nil {
			log.Fatal(err)
		}
	}

	switch *nextg {
	case "":
	case "nsa":
		factor := *hoFactor
		if factor <= 0 {
			factor = fiveg.NSAHandoverFactor
		}
		if ms, err = fiveg.ToNSA(ms, factor); err != nil {
			log.Fatal(err)
		}
	case "sa":
		factor := *hoFactor
		if factor <= 0 {
			factor = fiveg.SAHandoverFactor
		}
		if ms, err = fiveg.ToSA(ms, factor); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -nextg %q (want nsa or sa)", *nextg)
	}

	w := os.Stdout
	if *out != "-" {
		file, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := file.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = file
	}

	gopt := core.GenOptions{
		NumUEs:    *ues,
		StartHour: *start,
		Duration:  cp.Millis(*hours) * cp.Hour,
		Seed:      *seed,
		Workers:   *workers,
	}
	// One output call: a scenario's merged trace, the streaming source and
	// the in-memory trace go through the same writers, so -stream only
	// decides the memory.
	var src trace.EventSource
	what, mode := fmt.Sprintf("method=%s machine=%s", ms.Method, ms.MachineName), ""
	switch {
	case scn != nil:
		src, err = generateScenario(ms, scn, *workers, *hoFactor)
		what = fmt.Sprintf("scenario=%s sa_share=%.2f", scn.Name, scn.SAShare)
	case *stream:
		src, err = core.NewSource(ms, gopt)
		mode = " (streamed)"
	default:
		src, err = core.Generate(ms, gopt)
	}
	if err != nil {
		log.Fatal(err)
	}
	nUEs, nEvents, err := trace.WriteSource(w, src, *binOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "traffgen: %s -> %d UEs, %d events%s\n", what, nUEs, nEvents, mode)
}

// generateScenario synthesizes a scenario's population from the fitted
// model: the LTE block of UEs [0, n1) from ms with the scenario seed,
// and the 5G SA block [n1, N) — round(sa_share*N) UEs — from the
// SA-adapted model with seed+1, merged into one sorted trace.
func generateScenario(ms *core.ModelSet, s *scenario.Scenario, workers int, hoFactor float64) (*trace.Trace, error) {
	n := s.Population.UEs
	nSA := int(math.Round(s.SAShare * float64(n)))
	nLTE := n - nSA
	gopt := core.GenOptions{
		StartHour: s.StartHour,
		Duration:  s.Duration(),
		Seed:      s.Seed,
		Workers:   workers,
	}
	parts := make([]*trace.Trace, 0, 2)
	if nLTE > 0 {
		lopt := gopt
		lopt.NumUEs = nLTE
		tr, err := core.Generate(ms, lopt)
		if err != nil {
			return nil, err
		}
		parts = append(parts, tr)
	}
	if nSA > 0 {
		factor := hoFactor
		if factor <= 0 {
			factor = fiveg.SAHandoverFactor
		}
		msSA, err := fiveg.ToSA(ms, factor)
		if err != nil {
			return nil, err
		}
		sopt := gopt
		sopt.NumUEs = nSA
		sopt.Seed = s.Seed + 1
		tr, err := core.Generate(msSA, sopt)
		if err != nil {
			return nil, err
		}
		parts = append(parts, renumberUEs(tr, cp.UEID(nLTE)))
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return trace.Merge(parts...)
}

// renumberUEs shifts every UE id in tr by offset, so two independently
// generated populations occupy disjoint id blocks before merging.
func renumberUEs(tr *trace.Trace, offset cp.UEID) *trace.Trace {
	out := trace.New()
	for _, ue := range tr.UEs() {
		if err := out.SetDevice(ue+offset, tr.Device[ue]); err != nil {
			// Shifting a duplicate-free id set cannot conflict.
			panic(err)
		}
	}
	out.Events = make([]trace.Event, 0, tr.Len())
	for _, e := range tr.Events {
		e.UE += offset
		out.Events = append(out.Events, e)
	}
	return out
}
