package trace

import (
	"fmt"
	"runtime"
	"testing"

	"cptraffic/internal/cp"
)

// BenchmarkWindowAssemble times the windowed assembly layer alone —
// assembleWindows over pre-built per-UE streams (ueMajorEvents: one hour,
// about 20 events a UE) into a sink that only counts — at a population
// whose pending times and windows fit the cache and one that has more
// streams than the sort's window target. Beside the time it reports the
// most keys one window held (max-keys), which sizes every window buffer,
// and the bytes allocated per UE (B/UE).
func BenchmarkWindowAssemble(b *testing.B) {
	for _, nUEs := range []int{2000, 100000} {
		b.Run(fmt.Sprintf("streams=%d", nUEs), func(b *testing.B) {
			evs := ueMajorEvents(nUEs, 1)
			streams := make([][]Event, nUEs)
			for lo := 0; lo < len(evs); {
				hi := lo
				for hi < len(evs) && evs[hi].UE == evs[lo].UE {
					hi++
				}
				streams[evs[lo].UE] = evs[lo:hi]
				lo = hi
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			largest := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := newFakeStreams(streams).streams()
				got := 0
				a := newWindowAssembler(func(batch *Batch) error {
					got += batch.Len()
					return nil
				}, f, (*fakeStream).drain)
				if err := a.assemble(cp.UEID(nUEs - 1)); err != nil || got != len(evs) {
					b.Fatalf("assembled %d of %d events: %v", got, len(evs), err)
				}
				largest = max(largest, a.largest)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			events := float64(b.N) * float64(len(evs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(nUEs), "B/UE")
			b.ReportMetric(float64(largest), "max-keys")
		})
	}
}
