package core

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// BenchmarkEngineStep isolates the steady-state cost of one generated
// event — no sorting, no trace assembly. "compiled" times the loop
// production runs: drainUntil under hourly limits into a reused KeyRun,
// so an op is one event drawn, packed and appended (ns/op is ns/event). "interpreted" times
// the test oracle's Next for the ratio.
func BenchmarkEngineStep(b *testing.B) {
	ms := fitToy(b, 50, 3*cp.Hour, 42, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		b.Fatal(err)
	}
	cm := compile(ms, machine)
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
			events += g.emitted - before
			if pending == trace.NoPending {
				seed++
				g = newUEGen(cm, cd, 1, stats.NewRNGVal(seed), 0, window)
				limit = 0
			}
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
