package core

import (
	"testing"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// BenchmarkEngineStep isolates the steady-state cost of one generated
// event — no sorting, no trace assembly; an op is one event drawn, packed
// and appended (ns/op is ns/event). "compiled" times the loop production
// runs, drainUntil under hourly limits into a reused KeyRun, on one UE of
// a 50-UE toy model whose tables fit in L1. "population" times the same
// engine the way Generate's workers run it, one UE at a time with init
// included, over the generate workloads' model shape — a 400-UE × 1-day
// world (seed 3) fitted by the paper's method at θn = 40 — and 20 K UEs
// × 1 h: persona picks over hundreds of personas and tables that do not
// fit in L1 are in it. "interpreted" times the test oracle's Next for the
// ratio.
func BenchmarkEngineStep(b *testing.B) {
	ms := fitToy(b, 50, 3*cp.Hour, 42, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		b.Fatal(err)
	}
	cm, err := compile(ms, machine)
	if err != nil {
		b.Fatal(err)
	}
	cd := cm.dev(cp.Phone)
	dm := ms.Devices[cp.Phone]
	const window = 365 * cp.Day
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		lay, fits := trace.NewKeyLayout(0, window+windowOvershoot-1, 1)
		if !fits {
			b.Fatal("layout does not fit")
		}
		var run trace.KeyRun
		seed := uint64(1)
		g := newUEGen(cm, cd, 1, stats.NewRNGVal(seed), 0, window)
		limit, events := cp.Millis(0), 0
		for events < b.N {
			run.Reset()
			limit += cp.Hour
			before := g.emitted
			pending := g.drainUntil(limit, &lay, &run)
			events += int(g.emitted - before)
			if pending == trace.NoPending {
				seed++
				g = newUEGen(cm, cd, 1, stats.NewRNGVal(seed), 0, window)
				limit = 0
			}
		}
	})
	var pop *ModelSet // built on first use, shared by the runs b.Run makes
	b.Run("population", func(b *testing.B) {
		if pop == nil {
			pop = populationModel(b)
		}
		opt := GenOptions{NumUEs: 20000, StartHour: 18, Duration: cp.Hour, Seed: 12}
		p, err := planGeneration(pop, opt)
		if err != nil {
			b.Fatal(err)
		}
		lay, fits := trace.NewKeyLayout(p.t0, p.end+windowOvershoot-1, cp.UEID(p.numUEs-1))
		if !fits {
			b.Fatal("layout does not fit")
		}
		pcm := p.cm
		var run trace.KeyRun
		var g ueGen
		b.ReportAllocs()
		b.ResetTimer()
		for i, events := 0, 0; events < b.N; i = (i + 1) % p.numUEs {
			j := p.job(i)
			pcd := pcm.dev(j.dev)
			if pcd == nil {
				continue
			}
			run.Reset()
			g.init(pcm, pcd, j.ue, j.rng, p.t0, p.end)
			g.drainUntil(trace.NoPending, &lay, &run)
			events += int(g.emitted)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		seed := uint64(1)
		g := newUEInterp(machine, dm, 1, stats.NewRNG(seed), 0, window)
		for i := 0; i < b.N; i++ {
			if _, ok := g.Next(); !ok {
				seed++
				g = newUEInterp(machine, dm, 1, stats.NewRNG(seed), 0, window)
			}
		}
	})
}

// populationModel fits the generate workloads' model: the paper's method
// (two-level machine, quantile-table sojourns, clustering at θn = 40) on a
// simulated 400-UE × 1-day world.
func populationModel(tb testing.TB) *ModelSet {
	tb.Helper()
	tr, err := world.Generate(world.Options{NumUEs: 400, Duration: cp.Day, Seed: 3, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ms, err := Fit(tr, FitOptions{
		Machine:     sm.LTE2Level(),
		SojournKind: SojournTable,
		Cluster:     cluster.Options{ThetaN: 40},
		Method:      "ours",
		Workers:     1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ms
}
