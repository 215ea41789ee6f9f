package world

import (
	"slices"
	"sort"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// newUESim derives UE i's stream and prepares its simulator on the heap —
// the slab-free convenience form of simPlan + init.
func newUESim(opt Options, mix [cp.NumDeviceTypes]float64, root *stats.RNG, i int) (*ueSim, cp.DeviceType) {
	rng, dev := simPlan(mix, root, i)
	u := &ueSim{}
	u.init(opt, cp.UEID(i), dev, rng)
	return u, dev
}

// sortedEvents returns run's events in canonical order, and whether every
// one lay inside lay.
func sortedEvents(run *trace.KeyRun, lay *trace.KeyLayout) ([]trace.Event, bool) {
	evs, ok := run.Events(lay)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Before(evs[j]) })
	return evs, ok
}

// TestDrainUntilMatchesNext is the simulator half of the windowed
// assembly's contract. The reference is one unlimited
// drainUntil(NoPending) — the call Generate makes, whose bytes
// TestWorldDigestPinned pins. However the timeline is cut into limits —
// millisecond steps, jumps of minutes, no limit at all — drainUntil
// delivers exactly the reference's events, each call exactly those before
// its limit, reports the next event's time as pending (NoPending after the
// last), and leaves the RNG where the reference leaves it. (The name is
// historical: the reference used to be a per-event Next.)
func TestDrainUntilMatchesNext(t *testing.T) {
	opt := Options{NumUEs: 12, Duration: 9 * cp.Hour, Offset: 5*cp.Hour + 30*cp.Minute, Seed: 21}
	mix, err := resolveMix(opt)
	if err != nil {
		t.Fatal(err)
	}
	end := opt.Offset + opt.Duration
	lay, fits := trace.NewKeyLayout(opt.Offset, end-1, cp.UEID(opt.NumUEs-1))
	if !fits {
		t.Fatal("layout does not fit")
	}
	total := 0
	for i := 0; i < opt.NumUEs; i++ {
		ref, _ := newUESim(opt, mix, stats.NewRNG(opt.Seed), i)
		var all trace.KeyRun
		if pending := ref.drainUntil(trace.NoPending, &lay, &all); pending != trace.NoPending {
			t.Fatalf("UE %d: the unlimited drain reports pending %d", i, pending)
		}
		want, ok := sortedEvents(&all, &lay)
		if !ok {
			t.Fatalf("UE %d: the unlimited drain delivered an event outside the simulated window", i)
		}
		total += len(want)

		u, _ := newUESim(opt, mix, stats.NewRNG(opt.Seed), i)
		cuts := stats.NewRNG(uint64(i) + 100)
		limit, done := opt.Offset, 0
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
					limit = trace.NoPending // no limit at all, as Generate drains
				} else if done < len(want) {
					limit = max(limit, want[done].T) // the next event sits exactly on the limit
				}
			}
			var run trace.KeyRun
			pending := u.drainUntil(limit, &lay, &run)
			got, ok := sortedEvents(&run, &lay)
			if !ok {
				t.Fatalf("UE %d: drainUntil(%d) delivered an event outside the simulated window", i, limit)
			}
			n := 0
			for done+n < len(want) && want[done+n].T < limit {
				n++
			}
			if !slices.Equal(got, want[done:done+n]) {
				t.Fatalf("UE %d: drainUntil(%d) delivered %v, the unlimited drain's events before the limit are %v", i, limit, got, want[done:done+n])
			}
			done += n
			// One decision ahead: the pending time is the next event's own.
			next := trace.NoPending
			if done < len(want) {
				next = want[done].T
			}
			if pending != next {
				t.Fatalf("UE %d: drainUntil(%d) reports pending %d, the next event is due at %d", i, limit, pending, next)
			}
			if limit == trace.NoPending {
				break
			}
		}
		if done != len(want) {
			t.Fatalf("UE %d: delivered %d of %d events", i, done, len(want))
		}
		if u.rng != ref.rng {
			t.Fatalf("UE %d: RNG state differs from the unlimited drain's after the window", i)
		}
	}
	if total == 0 {
		t.Fatal("no events; test is vacuous")
	}
}
