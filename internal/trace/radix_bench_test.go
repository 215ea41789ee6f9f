package trace

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// ueMajorEvents draws a one-hour population the way a Generate worker
// leaves it: UE after UE, each UE's events ascending in time, about 20
// events per UE (the gen_mem workload's density).
func ueMajorEvents(nUEs int, seed uint64) []Event {
	r := stats.NewRNG(seed)
	evs := make([]Event, 0, nUEs*20)
	for ue := 0; ue < nUEs; ue++ {
		first := len(evs)
		for i, n := 0, 10+r.Intn(21); i < n; i++ {
			evs = append(evs, Event{
				T:    18*cp.Hour + cp.Millis(r.Intn(int(cp.Hour))),
				UE:   cp.UEID(ue),
				Type: cp.EventType(r.Intn(cp.NumEventTypes)),
			})
		}
		slices.SortFunc(evs[first:], func(a, b Event) int { return int(a.T - b.T) })
	}
	return evs
}

// BenchmarkAssembleKeys times the assembly layer alone — assembleKeys
// over one UE-major run of packed keys, the layer bench/ reports as
// trace.radix.ns_per_event — at a population whose keys fit the cache
// and one whose keys do not.
func BenchmarkAssembleKeys(b *testing.B) {
	for _, nUEs := range []int{2000, 100000} {
		b.Run(fmt.Sprintf("ues=%d", nUEs), func(b *testing.B) {
			evs := ueMajorEvents(nUEs, 1)
			l, ok := NewKeyLayout(18*cp.Hour, 19*cp.Hour-1, cp.UEID(nUEs-1))
			if !ok {
				b.Fatal("layout does not fit")
			}
			var packed KeyRun
			packed.Append(&l, evs...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := KeyRun{keys: slices.Clone(packed.keys)} // assembleKeys consumes its runs
				b.StartTimer()
				if got, _ := assembleKeys(&l, []KeyRun{run}); len(got) != len(evs) {
					b.Fatalf("assembled %d of %d events", len(got), len(evs))
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			events := float64(b.N) * float64(len(evs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			// The clone is the harness's, not the layer's.
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events-8, "B/event")
		})
	}
}
