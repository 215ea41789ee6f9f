package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// instruments counts the samplers and digests currently alive. Timed
// reps refuse to run unless it is zero: a 1 ms ReadMemStats ticker on the
// timed path cost the prototype 25% of gen_mem's throughput and took its
// run-to-run spread from 2.4% to 12% (README, "Memory is measured apart
// from time").
var instruments atomic.Int32

// auditGCPercent is the collector setting of the audit rep only. At 10 a
// cycle starts whenever the heap has grown a tenth over the live data,
// so garbage never hides how much of the heap is in use.
const auditGCPercent = 10

// samplePeriod separates the sampler's forced collections.
const samplePeriod = 2 * time.Millisecond

// liveHeap collects and returns the bytes found reachable. Sampling
// HeapAlloc instead counts garbage not yet swept, and waiting for the
// collector's own cycles misses any peak the program reaches without
// allocating on the way (a radix sort into its scratch copy): either way
// storm's peak read 102 MiB in some runs and 150 MiB in others.
func liveHeap(sample []metrics.Sample) uint64 {
	runtime.GC()
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func newLiveHeapSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
}

// heapSampler forces a collection every samplePeriod and keeps the
// largest live heap any of them found.
type heapSampler struct {
	base, peak uint64
	stop, done chan struct{}
}

// startHeapSampler takes the baseline and starts sampling.
func startHeapSampler() *heapSampler {
	instruments.Add(1)
	base := liveHeap(newLiveHeapSample())
	s := &heapSampler{base: base, peak: base, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		sample := newLiveHeapSample()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if live := liveHeap(sample); live > s.peak {
					s.peak = live
				}
			}
		}
	}()
	return s
}

// Stop waits for the sampler to exit, samples once more so that what the
// rep leaves behind is counted, and returns the high-water growth over
// the baseline in MiB.
func (s *heapSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	if live := liveHeap(newLiveHeapSample()); live > s.peak {
		s.peak = live
	}
	instruments.Add(-1)
	return float64(s.peak-s.base) / (1 << 20)
}

// sampled runs f as the audit rep's measured call: collector at
// auditGCPercent, sampler alive on a processor of its own so it ticks on
// time, all undone before it returns.
func sampled(f func() error) (peakMiB float64, err error) {
	defer allProcs()()
	old := debug.SetGCPercent(auditGCPercent)
	s := startHeapSampler()
	err = f()
	peakMiB = s.Stop()
	debug.SetGCPercent(old)
	return peakMiB, err
}

// allProcs lifts the benchmark's one-processor setting and returns the
// function that puts it back.
func allProcs() (restore func()) {
	old := runtime.GOMAXPROCS(runtime.NumCPU())
	return func() { runtime.GOMAXPROCS(old) }
}

// memDelta is what the allocator and collector did across timed reps.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	pauseNs        uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// addSince accumulates the change from before to now.
func (d *memDelta) addSince(before memDelta) {
	now := readMem()
	d.mallocs += now.mallocs - before.mallocs
	d.bytes += now.bytes - before.bytes
	d.gcCycles += now.gcCycles - before.gcCycles
	d.pauseNs += now.pauseNs - before.pauseNs
}

// timed runs one bare rep: no sampler, no digest, no wrapper, the heap
// collected beforehand so every rep starts from the same state. The
// MemStats reads sit outside the timed interval.
func timed(f func() error, mem *memDelta) (time.Duration, error) {
	if n := instruments.Load(); n != 0 {
		return 0, fmt.Errorf("bench: %d sampler or digest alive on the timed path", n)
	}
	runtime.GC()
	before := readMem()
	start := time.Now()
	err := f()
	d := time.Since(start)
	mem.addSince(before)
	if n := instruments.Load(); n != 0 && err == nil {
		err = fmt.Errorf("bench: %d sampler or digest started during a timed rep", n)
	}
	return d, err
}

// summary is a median with its sample count and range. Five reps support
// no percentile beyond the median, so none is reported.
type summary struct {
	n                int
	median, min, max float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{n: n, median: med, min: s[0], max: s[n-1]}
}
