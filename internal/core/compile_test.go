package core

import (
	"bytes"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamBytes drives the source through the incremental text writer —
// the CLI output path.
func streamBytes(t *testing.T, src trace.EventSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewTextWriter(&buf)
	if err := trace.CopyBatches(tw, src); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompiledMatchesInterpreted is the tentpole invariant: production —
// the compiled engine under packed-key assembly (Generate) and under
// windowed assembly (Source) — produces
// byte-identical traces to the oracle, the interpreter under a comparison
// sort (interpTrace), for every seed and worker count: on the full
// two-level model, on a flat model whose free-running HO/TAU processes
// the two-level model never exercises, and on tickModel's event per UE
// per millisecond, which puts events on every window bound. The 336-h rows
// cross every hour boundary and midnight of two weeks, so the engine's
// cached cell must follow the hour; base-no-HO-h1 has a free clock fire
// in an hour whose cell lacks its process, which must disarm it.
func TestCompiledMatchesInterpreted(t *testing.T) {
	ours, base := fitToy(t, 50, 3*cp.Hour, 42, FitOptions{}), fitBase(t)
	cases := map[string]struct {
		ms       *ModelSet
		ues      int
		duration cp.Millis
	}{
		"ours":          {ours, 80, 3 * cp.Hour},
		"base":          {base, 80, 3 * cp.Hour},
		"tick":          {tickModel(t), 7, 3500},
		"ours-336h":     {ours, 6, 336 * cp.Hour},
		"base-336h":     {base, 6, 336 * cp.Hour},
		"base-no-HO-h1": {withoutFreeAt(t, fitBase(t), 1, cp.Handover), 80, 5 * cp.Hour},
	}
	for name, c := range cases {
		ms := c.ms
		for _, seed := range []uint64{1, 7, 99} {
			for _, workers := range []int{1, 8} {
				opt := GenOptions{NumUEs: c.ues, StartHour: 22, Duration: c.duration, Seed: seed, Workers: workers}
				want := interpTrace(t, ms, opt)
				if want.Len() == 0 {
					t.Fatalf("%s seed=%d: the oracle produced no events; test is vacuous", name, seed)
				}
				wb := traceBytes(t, want)

				got, err := Generate(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				if gb := traceBytes(t, got); !bytes.Equal(wb, gb) {
					t.Fatalf("%s seed=%d workers=%d: Generate differs from the interpreted oracle (%d vs %d bytes)",
						name, seed, workers, len(gb), len(wb))
				}

				csrc, err := NewSource(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				if sb := streamBytes(t, csrc); !bytes.Equal(wb, sb) {
					t.Fatalf("%s seed=%d workers=%d: Source.ScanBatches differs from the interpreted oracle", name, seed, workers)
				}
			}
		}
	}
}

// fitBase fits the Base method, whose free-running HO and TAU clocks race
// beside the machine.
func fitBase(t *testing.T) *ModelSet {
	t.Helper()
	ms, err := Fit(toyTrace(t, 60, 3*cp.Hour, 43), FitOptions{
		Machine:      sm.EMMECM(),
		SojournKind:  SojournExp,
		FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
		NoClustering: true,
		Method:       "base",
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// withoutFreeAt removes the free-running process of event type e from
// every cell of hour h, in place, and returns ms.
func withoutFreeAt(t *testing.T, ms *ModelSet, h int, e cp.EventType) *ModelSet {
	t.Helper()
	strip := func(fps []FreeProcess) []FreeProcess {
		var kept []FreeProcess
		for _, fp := range fps {
			if fp.Event != e {
				kept = append(kept, fp)
			}
		}
		return kept
	}
	stripped := 0
	for _, dm := range ms.Devices {
		if dm == nil || len(dm.Hours) <= h {
			continue
		}
		hm := &dm.Hours[h]
		for c := range hm.Clusters {
			hm.Clusters[c].Free = strip(hm.Clusters[c].Free)
			stripped++
		}
		if hm.Aggregate != nil {
			hm.Aggregate.Free = strip(hm.Aggregate.Free)
			stripped++
		}
	}
	if stripped == 0 {
		t.Fatalf("no hour-%d model to strip", h)
	}
	return ms
}

// TestUEGenSteadyStateAllocs is the allocation regression gate on the loop
// production runs: the compiled generator's drainUntil, called the way the
// streaming Source calls it — rising limits, a reused KeyRun already grown
// past anything one call appends — must not allocate at all. The
// interpreted oracle's Next must stay near zero (it reuses its queue
// backing array; the historical g.queue = g.queue[1:] re-slice leaked
// capacity and re-allocated on every flush). Skipped under the race
// detector, which changes allocation behavior.
func TestUEGenSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ms := fitToy(t, 40, 3*cp.Hour, 44, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm := compile(ms, machine)
	var dev cp.DeviceType = 255
	for d := 0; d < cp.NumDeviceTypes; d++ {
		if cm.devs[d] != nil {
			dev = cp.DeviceType(d)
			break
		}
	}
	if dev == 255 {
		t.Fatal("toy model has no device models")
	}
	const warmup, runs = 2000, 4000
	end := 365 * cp.Day

	t.Run("compiled", func(t *testing.T) {
		lay, fits := trace.NewKeyLayout(0, end+windowOvershoot-1, 1)
		if !fits {
			t.Fatal("layout does not fit")
		}
		g := newUEGen(cm, cm.dev(dev), 1, stats.NewRNGVal(1), 0, end)
		// Warm-up without Reset: the run grows to hold a month of keys,
		// far more than the hour one measured call appends.
		var run trace.KeyRun
		limit := 30 * cp.Day
		if g.drainUntil(limit, &lay, &run) == trace.NoPending || g.emitted < warmup {
			t.Fatalf("generator exhausted or nearly silent: %d warm-up events", g.emitted)
		}
		before, alive := g.emitted, true
		avg := testing.AllocsPerRun(runs, func() {
			run.Reset()
			limit += cp.Hour
			if g.drainUntil(limit, &lay, &run) == trace.NoPending {
				alive = false
			}
		})
		if !alive {
			t.Fatal("generator exhausted during measurement")
		}
		if n := g.emitted - before; n < runs {
			t.Fatalf("%d measured calls delivered %d events; test is close to vacuous", runs, n)
		}
		if avg > 0 {
			t.Errorf("steady-state drainUntil allocates %.4f allocs/call, want 0", avg)
		}
	})
	t.Run("interpreted", func(t *testing.T) {
		it := newUEInterp(machine, ms.Device(dev), 1, stats.NewRNG(1), 0, end)
		for i := 0; i < warmup; i++ {
			if _, ok := it.Next(); !ok {
				t.Fatalf("generator exhausted after %d warm-up events", i)
			}
		}
		alive := true
		avg := testing.AllocsPerRun(runs, func() {
			if _, ok := it.Next(); !ok {
				alive = false
			}
		})
		if !alive {
			t.Fatal("generator exhausted during measurement")
		}
		if avg > 0.05 {
			t.Errorf("steady-state Next allocates %.4f allocs/event, want <= 0.05", avg)
		}
	})
}
