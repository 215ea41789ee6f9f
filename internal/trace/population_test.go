package trace

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// population is the streams as a Population over [t0, tMax]: stream i is
// UE i, of device i modulo the device types. Its Drain is the stream's
// own, which records no limits, so workers may run it concurrently.
func (f *fakeStreams) population(t0, tMax cp.Millis) *Population[fakeStream] {
	return &Population[fakeStream]{
		N:      len(f.evs),
		T0:     t0,
		TMax:   tMax,
		Device: func(i int) cp.DeviceType { return cp.DeviceType(i % cp.NumDeviceTypes) },
		Init:   f.init,
		Drain:  (*fakeStream).drain,
	}
}

// generated runs pop.Generate and checks its registry against Devices.
func generated(t *testing.T, pop *Population[fakeStream], workers int) []Event {
	t.Helper()
	tr, err := pop.Generate(workers)
	if err != nil {
		t.Fatal(err)
	}
	want := map[cp.UEID]cp.DeviceType{}
	if err := pop.Devices(func(ue cp.UEID, d cp.DeviceType) error {
		want[ue] = d
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != pop.N || !maps.Equal(tr.Device, want) {
		t.Fatalf("workers=%d: Generate registered %d UEs, Devices reports %d (or other devices)", workers, len(tr.Device), len(want))
	}
	return tr.Events
}

// TestPopulationGenerateMatchesScan holds the driver's two assemblies to
// each other: Generate at several worker counts — one run assembled in
// place and several assembled apart, the forecast reached — returns what
// Collect reads through ScanBatches, and both are the loser tree's merge
// of the streams; the registry is Devices'.
func TestPopulationGenerateMatchesScan(t *testing.T) {
	r := stats.NewRNG(11)
	const t0 = 3 * cp.Hour
	for _, tc := range []struct {
		name      string
		k, maxLen int
		lazy      bool
	}{
		{"few long streams", 5, 400, false},
		{"past the forecast", 700, 40, false},
		{"lower-bound pending", 300, 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs := randomStreams(r, tc.k, tc.maxLen, t0, 5000)
			f := newFakeStreams(evs)
			f.lazy = tc.lazy
			pop := f.population(t0, t0+4999)
			scanned, err := Collect(pop)
			if err != nil {
				t.Fatal(err)
			}
			if want := mergeOracle(t, evs); !slices.Equal(scanned.Events, want) {
				t.Fatalf("ScanBatches differs from MergeBatches (%d vs %d events)", len(scanned.Events), len(want))
			}
			for _, workers := range []int{1, 3, 8} {
				if got := generated(t, pop, workers); !slices.Equal(got, scanned.Events) {
					t.Fatalf("workers=%d: Generate differs from ScanBatches (%d vs %d events)", workers, len(got), len(scanned.Events))
				}
			}
		})
	}
}

// TestPopulationGenerateFallsBackToWindows drives Generate's other
// assembly: a span whose packed key does not fit 64 bits, and a run
// holding an event past the declared TMax (a stream bug), both take the
// windowed path and return the merge's events all the same.
func TestPopulationGenerateFallsBackToWindows(t *testing.T) {
	r := stats.NewRNG(5)
	const far = cp.Millis(1) << 60
	unpackable := randomStreams(r, 10, 50, 0, 5000)
	for i := range unpackable {
		unpackable[i] = append(unpackable[i], Event{T: far - cp.Millis(i), UE: cp.UEID(i), Type: cp.Handover})
	}
	for _, tc := range []struct {
		name string
		evs  [][]Event
		tMax cp.Millis
		fits bool
	}{
		{"unpackable span", unpackable, far, false},
		{"event past TMax", randomStreams(r, 10, 50, 0, 5000), 4000, true},
	} {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				if _, fits := NewKeyLayout(0, tc.tMax, cp.UEID(len(tc.evs)-1)); fits != tc.fits {
					t.Fatalf("the declared span's key fits: %v, want %v", fits, tc.fits)
				}
				pop := newFakeStreams(tc.evs).population(0, tc.tMax)
				windowed := false
				drain := pop.Drain
				pop.Drain = func(s *fakeStream, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis {
					if limit != NoPending { // only the windows, which run serially, ask for a limit
						windowed = true
					}
					return drain(s, limit, l, run)
				}
				got := generated(t, pop, workers)
				if !windowed {
					t.Fatal("Generate did not take the windowed path")
				}
				if want := mergeOracle(t, tc.evs); !slices.Equal(got, want) {
					t.Fatalf("the windowed fallback differs from MergeBatches (%d vs %d events)", len(got), len(want))
				}
			})
		}
	}
}
