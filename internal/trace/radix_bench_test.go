package trace

import (
	"runtime"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// ueMajorEvents draws a one-hour population the way a Generate worker
// leaves it: UE after UE, each UE's events in canonical order, about 20
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
		ue := Trace{Events: evs[first:]}
		ue.Sort()
	}
	return evs
}

// BenchmarkAssembleKeys times the assembly layer alone — assembleKeys
// over one run of packed keys, the layer bench/ reports as
// trace.radix.ns_per_event — on a million keys of one hour: laid out UE
// after UE, the order a Generate worker leaves them in, and shuffled,
// where every bucket that holds two keys of one millisecond out of UE
// order is sorted twice. It reports ns/key and the buckets sorted again
// (resorted/op).
func BenchmarkAssembleKeys(b *testing.B) {
	const nUEs = 50000 // 20 keys a UE: a million keys
	ordered := ueMajorEvents(nUEs, 1)
	shuffled := slices.Clone(ordered)
	r := stats.NewRNG(2)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tc := range []struct {
		name string
		evs  []Event
	}{{"ue-major", ordered}, {"shuffled", shuffled}} {
		b.Run(tc.name, func(b *testing.B) {
			l, ok := NewKeyLayout(18*cp.Hour, 19*cp.Hour-1, cp.UEID(nUEs-1))
			if !ok {
				b.Fatal("layout does not fit")
			}
			var packed KeyRun
			packed.Append(&l, tc.evs...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resorted := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := KeyRun{keys: slices.Clone(packed.keys)} // assembleKeys consumes its runs
				b.StartTimer()
				got, n, _ := assembleKeys(&l, []KeyRun{run})
				if len(got) != len(tc.evs) {
					b.Fatalf("assembled %d of %d events", len(got), len(tc.evs))
				}
				resorted += n
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			keys := float64(b.N) * float64(len(tc.evs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
			b.ReportMetric(float64(resorted)/float64(b.N), "resorted/op")
			// The clone is the harness's, not the layer's.
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/keys-8, "B/key")
		})
	}
}
