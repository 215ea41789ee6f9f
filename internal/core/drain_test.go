package core

import (
	"slices"
	"sort"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// testClocks is the clock arrays of the generators tests make one by one.
var testClocks clockSlab

// newUEGen prepares a heap-allocated compiled generator; no work happens
// until the first drainUntil. The persona pick consumes the stream's next
// draw exactly like DeviceModel.pickPersona.
func newUEGen(cm *compiledModel, cd *cDevice, ue cp.UEID, rng stats.RNG, t0, end cp.Millis) *ueGen {
	g := &ueGen{}
	g.init(cm, cd, ue, rng, t0, end, &testClocks)
	return g
}

// drained runs one drainUntil call and returns the events it delivered,
// in canonical order, and the pending time it reported.
func drained(t *testing.T, g *ueGen, limit cp.Millis, lay *trace.KeyLayout) ([]trace.Event, cp.Millis) {
	t.Helper()
	var run trace.KeyRun
	pending := g.drainUntil(limit, lay, &run)
	evs, ok := run.Events(lay)
	if !ok {
		t.Fatalf("drainUntil(%d) delivered an event outside the generation window", limit)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Before(evs[j]) })
	return evs, pending
}

// TestDrainUntilMatchesNext is the engine half of the windowed assembly's
// contract. The reference is one unlimited drainUntil(NoPending) — the
// call Generate makes, whose bytes the digest and oracle tests pin.
// However the timeline is cut into limits — millisecond steps, jumps of
// minutes, a limit far past the window's end — drainUntil delivers exactly
// the reference's events, each call exactly those before its limit,
// reports the next event's time as pending (NoPending after the last), and
// leaves the RNG and the emitted count where the reference leaves them.
// (The name is historical: the reference used to be a per-event Next.)
func TestDrainUntilMatchesNext(t *testing.T) {
	models := map[string]*ModelSet{
		"ours":  fitToy(t, 50, 3*cp.Hour, 42, FitOptions{}),
		"base":  fitBase(t), // free-running HO/TAU clocks in the race
		"flush": flushModel(t),
	}
	const t0, end = 22 * cp.Hour, 22*cp.Hour + 5*cp.Hour
	lay, fits := trace.NewKeyLayout(t0, end+windowOvershoot-1, 7)
	if !fits {
		t.Fatal("layout does not fit")
	}
	for name, ms := range models {
		machine, err := ms.Machine()
		if err != nil {
			t.Fatal(err)
		}
		cm, err := compile(ms, machine)
		if err != nil {
			t.Fatal(err)
		}
		cd := cm.dev(cp.Phone)
		if cd == nil {
			t.Fatalf("%s: no phone model", name)
		}
		total := 0
		for seed := uint64(1); seed <= 12; seed++ {
			ref := newUEGen(cm, cd, 7, stats.NewRNGVal(seed), t0, end)
			want, pending := drained(t, ref, trace.NoPending, &lay)
			if pending != trace.NoPending {
				t.Fatalf("%s seed %d: the unlimited drain reports pending %d", name, seed, pending)
			}
			total += len(want)

			g := newUEGen(cm, cd, 7, stats.NewRNGVal(seed), t0, end)
			cuts := stats.NewRNG(seed + 100)
			limit, done := cp.Millis(t0), 0
			for calls := 0; ; calls++ {
				switch cuts.Intn(4) {
				case 0:
					limit++ // the finest window there is
				case 1:
					limit += cp.Millis(cuts.Intn(int(cp.Second)))
				case 2:
					limit += cp.Millis(cuts.Intn(int(20 * cp.Minute)))
				default:
					if calls > 40 {
						limit = end + 1<<40 // far past the window
					} else if done < len(want) {
						limit = max(limit, want[done].T) // the next event sits exactly on the limit
					}
				}
				got, pending := drained(t, g, limit, &lay)
				n := 0
				for done+n < len(want) && want[done+n].T < limit {
					n++
				}
				if !slices.Equal(got, want[done:done+n]) {
					t.Fatalf("%s seed %d: drainUntil(%d) delivered %v, the unlimited drain's events before the limit are %v", name, seed, limit, got, want[done:done+n])
				}
				done += n
				// One firing ahead: the pending time is the next event's own.
				next := trace.NoPending
				if done < len(want) {
					next = want[done].T
				}
				if pending != next {
					t.Fatalf("%s seed %d: drainUntil(%d) reports pending %d, the next event is due at %d", name, seed, limit, pending, next)
				}
				if limit > end {
					break
				}
			}
			if g.rng != ref.rng {
				t.Fatalf("%s seed %d: RNG state differs from the unlimited drain's after the window", name, seed)
			}
			if g.emitted != ref.emitted {
				t.Fatalf("%s seed %d: emitted %d, the unlimited drain %d", name, seed, g.emitted, ref.emitted)
			}
		}
		if total == 0 {
			t.Fatalf("%s: no events; test is vacuous", name)
		}
	}
}

// TestDrainUntilFlushStraddlesLimit is the window-edge case of
// TestGenerateWindowEdgeOvershoot seen from a window boundary: flushModel's
// SRV_REQ fires at 12 s and its case-1 flush stamps S1_CONN_REL at the
// firing time and the SRV_REQ one millisecond later. A limit between the
// two must deliver the first, keep the second queued and report its time,
// and the next call must deliver it — also when the firing is the window's
// last and the queued event lies at end itself.
func TestDrainUntilFlushStraddlesLimit(t *testing.T) {
	ms := flushModel(t)
	machine, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile(ms, machine)
	if err != nil {
		t.Fatal(err)
	}
	const t0 = 7 * cp.Hour
	fire := t0 + 12*cp.Second
	for _, end := range []cp.Millis{t0 + cp.Minute, fire + 1} {
		lay, _ := trace.NewKeyLayout(t0, end+windowOvershoot-1, 0)
		g := newUEGen(cm, cm.dev(cp.Phone), 0, stats.NewRNGVal(3), t0, end)
		steps := []struct {
			limit   cp.Millis
			want    []trace.Event
			pending cp.Millis
		}{
			{fire, []trace.Event{{T: t0 + 10*cp.Second, Type: cp.TrackingAreaUpdate}}, fire},
			{fire + 1, []trace.Event{{T: fire, Type: cp.S1ConnRelease}}, fire + 1},
			{fire + 1, nil, fire + 1},
			{fire + 2, []trace.Event{{T: fire + 1, Type: cp.ServiceRequest}}, trace.NoPending},
		}
		for _, s := range steps {
			got, pending := drained(t, g, s.limit, &lay)
			if !slices.Equal(got, s.want) || pending != s.pending {
				t.Fatalf("end=%d: drainUntil(%d) = %v, pending %d; want %v, pending %d", end, s.limit, got, pending, s.want, s.pending)
			}
		}
	}
}
