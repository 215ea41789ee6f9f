package cptraffic_test

// One benchmark per table and figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md). Each bench regenerates the
// corresponding artifact end to end on the world-simulator substrate at
// the default laptop scale; the rendered output of the same code is
// produced by `go run ./cmd/experiments` and recorded in EXPERIMENTS.md.
//
// The heavy fixtures (training world, four fitted models, validation
// traces) are built once and shared across benches, so the reported
// ns/op measure the experiment's analysis work, not refitting.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/experiments"
	"cptraffic/internal/mcn"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.DefaultConfig())
	})
	return benchLab
}

// prepare forces the shared fixtures outside the timed region.
func prepare(b *testing.B, l *experiments.Lab) {
	b.Helper()
	if _, err := l.Models(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

func runExp(b *testing.B, fn func(*experiments.Lab, io.Writer) error) {
	l := lab(b)
	prepare(b, l)
	for i := 0; i < b.N; i++ {
		if err := fn(l, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_EventBreakdown(b *testing.B) {
	runExp(b, experiments.Table1)
}

func BenchmarkFigure2_DiurnalBoxes(b *testing.B) {
	runExp(b, experiments.Figure2)
}

func BenchmarkTable8_FitNoClustering(b *testing.B) {
	runExp(b, experiments.Table8)
}

func BenchmarkTable9_FitWithClustering(b *testing.B) {
	runExp(b, experiments.Table9)
}

func BenchmarkTable10_SubstateFits(b *testing.B) {
	runExp(b, experiments.Table10)
}

func BenchmarkFigure3_VarianceTime(b *testing.B) {
	runExp(b, experiments.Figure3)
}

func BenchmarkFigure4_CDFvsPoisson(b *testing.B) {
	runExp(b, experiments.Figure4)
}

func BenchmarkClusterCounts(b *testing.B) {
	runExp(b, experiments.Clusters)
}

func BenchmarkTable11_BreakdownScenario1(b *testing.B) {
	runExp(b, func(l *experiments.Lab, w io.Writer) error {
		return experiments.BreakdownTable(l, w, 1)
	})
}

func BenchmarkTable4_BreakdownScenario2(b *testing.B) {
	runExp(b, func(l *experiments.Lab, w io.Writer) error {
		return experiments.BreakdownTable(l, w, 2)
	})
}

func BenchmarkTable5_MaxYDistance(b *testing.B) {
	runExp(b, experiments.Table5)
}

func BenchmarkTable6_ActivitySplit(b *testing.B) {
	runExp(b, experiments.Table6)
}

func BenchmarkFigure7_PerUECDFs(b *testing.B) {
	runExp(b, experiments.Figure7)
}

func BenchmarkTable7_FiveGProjection(b *testing.B) {
	runExp(b, experiments.Table7)
}

func BenchmarkAblationClusterThresholds(b *testing.B) {
	runExp(b, experiments.AblationClusterThresholds)
}

func BenchmarkAblationECDFResolution(b *testing.B) {
	runExp(b, experiments.AblationTableResolution)
}

func BenchmarkAblationTwoLevelVsFlat(b *testing.B) {
	runExp(b, experiments.AblationTwoLevelVsFlat)
}

// BenchmarkGrowthProjection runs the §3.1 growth/dimensioning use case.
func BenchmarkGrowthProjection(b *testing.B) {
	runExp(b, experiments.GrowthProjection)
}

// BenchmarkDiurnalFidelity validates 24-hour hour-chained generation.
func BenchmarkDiurnalFidelity(b *testing.B) {
	runExp(b, experiments.DiurnalFidelity)
}

// BenchmarkImprovementFactors reproduces the introduction's headline
// max-y-distance reduction ratios.
func BenchmarkImprovementFactors(b *testing.B) {
	runExp(b, experiments.ImprovementTable)
}

// BenchmarkGeneratorPerUEHour measures the per-UE traffic generator's
// synthesis throughput — the paper reports 1.46/0.68/0.55 seconds per
// UE-hour for phones/cars/tablets on their 12-CPU testbed (§8.1).
func BenchmarkGeneratorPerUEHour(b *testing.B) {
	l := lab(b)
	models, err := l.Models()
	if err != nil {
		b.Fatal(err)
	}
	ms := models["ours"]
	for _, d := range cp.DeviceTypes {
		mix := make([]float64, cp.NumDeviceTypes)
		mix[d] = 1
		b.Run(d.String(), func(b *testing.B) {
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				tr, err := core.Generate(ms, core.GenOptions{
					NumUEs:    100,
					StartHour: 18,
					Duration:  cp.Hour,
					Seed:      uint64(i + 1),
					DeviceMix: mix,
				})
				if err != nil {
					b.Fatal(err)
				}
				total += tr.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*100)/1e9, "s/UE-hour")
		})
	}
}

// mallocs reads the cumulative heap-allocation count, for allocs/event
// metrics over a whole timed region (b.ReportAllocs reports per-op, but
// the ledger wants per-event).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkGenerateThroughput is the headline perf-ledger benchmark:
// steady-state event throughput of core.Generate. The single
// sub-benchmark keeps the name the recorded ledger rows carry
// ("compiled", from when an interpreted row ran beside it; the
// interpreter is now the test oracle in internal/core/interp_test.go).
func BenchmarkGenerateThroughput(b *testing.B) {
	l := lab(b)
	models, err := l.Models()
	if err != nil {
		b.Fatal(err)
	}
	ms := models["ours"]
	b.Run("compiled", func(b *testing.B) {
		events := 0
		b.ResetTimer()
		m0 := mallocs()
		for i := 0; i < b.N; i++ {
			tr, err := core.Generate(ms, core.GenOptions{
				NumUEs:    2000,
				StartHour: 18,
				Duration:  cp.Hour,
				Seed:      uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			events += tr.Len()
		}
		allocs := mallocs() - m0
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
	})
}

// BenchmarkWorldThroughput measures the ground-truth world simulator's
// event throughput in the ledger's units (events/sec, allocs/event);
// BenchmarkWorldSimulator keeps the historical per-op shape.
func BenchmarkWorldThroughput(b *testing.B) {
	events := 0
	b.ResetTimer()
	m0 := mallocs()
	for i := 0; i < b.N; i++ {
		tr, err := world.Generate(world.Options{NumUEs: 1000, Duration: cp.Hour * 6, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		events += tr.Len()
	}
	allocs := mallocs() - m0
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
}

// BenchmarkWorldSimulator measures the ground-truth simulator's event
// throughput.
func BenchmarkWorldSimulator(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		tr, err := world.Generate(world.Options{NumUEs: 500, Duration: cp.Hour * 6, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		events += tr.Len()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkFitParallel sweeps the fitting worker count on the Table
// 9-scale workload (the default experiment config's training world).
// Fitting was the last single-threaded stage of the worldgen → fitmodel
// → traffgen → eval pipeline; the sweep documents how far the
// per-(hour, device, cluster) fan-out scales, and the output is
// byte-identical at every worker count (TestFitDeterministicAcrossWorkers).
func BenchmarkFitParallel(b *testing.B) {
	cfg := experiments.DefaultConfig()
	tr, err := world.Generate(world.Options{
		NumUEs:   cfg.TrainUEs,
		Duration: cp.Millis(cfg.Days) * cp.Day,
		Seed:     cfg.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Fit(tr, core.FitOptions{
					Cluster: cluster.Options{ThetaN: cfg.ThetaN},
					Workers: w,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPassRatesParallel sweeps the worker count of the Table 9
// goodness-of-fit sweep (clustered, MLE + K-S/A² per unit), the other
// repeated-fitting hot path.
func BenchmarkPassRatesParallel(b *testing.B) {
	cfg := experiments.DefaultConfig()
	tr, err := world.Generate(world.Options{
		NumUEs:   cfg.TrainUEs,
		Duration: cp.Millis(cfg.Days) * cp.Day,
		Seed:     cfg.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	col, err := eval.Collect(tr)
	if err != nil {
		b.Fatal(err)
	}
	qs := eval.Table8Quantities()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval.PassRates(col, qs, eval.FitTestOptions{
					Clustered:  true,
					Cluster:    cluster.Options{ThetaN: cfg.ThetaN},
					MinSamples: 30,
					Workers:    w,
				})
			}
		})
	}
}

// BenchmarkModelFit measures the fitting pipeline itself.
func BenchmarkModelFit(b *testing.B) {
	tr, err := world.Generate(world.Options{NumUEs: 400, Duration: cp.Day, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fit(tr, core.FitOptions{Cluster: cluster.Options{ThetaN: 40}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitSharded measures the shard/merge fit on the
// BenchmarkModelFit workload: each op fits N hash shards concurrently
// and merges the partials into the model, which is byte-identical to
// the unsharded fit (TestShardedFitMatchesUnsharded). shards=1 is the
// PartialFit driver without sharding, for the refactor's baseline cost.
func BenchmarkFitSharded(b *testing.B) {
	tr, err := world.Generate(world.Options{NumUEs: 400, Duration: cp.Day, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.FitOptions{Cluster: cluster.Options{ThetaN: 40}}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts := make([]*core.PartialFit, shards)
				errs := make([]error, shards)
				var wg sync.WaitGroup
				for s := 0; s < shards; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						pf, err := core.NewPartialFit(opt)
						if err != nil {
							errs[s] = err
							return
						}
						src, err := trace.ShardSource(tr, shards, s)
						if err != nil {
							errs[s] = err
							return
						}
						if err := pf.AddSource(src); err != nil {
							errs[s] = err
							return
						}
						parts[s] = pf
					}(s)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				for s := 1; s < shards; s++ {
					if err := parts[0].Merge(parts[s]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := parts[0].Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitSketched compares bounded-memory mode (every sample pool
// capped at SketchK items by a mergeable bottom-k sketch) against the
// exact streamed fit on the same workload, reporting the peak heap
// growth per fit — the quantity SketchK exists to cap.
func BenchmarkFitSketched(b *testing.B) {
	tr, err := world.Generate(world.Options{NumUEs: 400, Duration: cp.Day, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		k    int
	}{{"exact", 0}, {"sketched-k=256", 256}} {
		b.Run(cfg.name, func(b *testing.B) {
			var peak uint64
			for i := 0; i < b.N; i++ {
				p := fitPeakHeap(b, tr, core.FitOptions{
					Cluster: cluster.Options{ThetaN: 40}, SketchK: cfg.k, Workers: 1,
				})
				if p > peak {
					peak = p
				}
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		})
	}
}

// fitPeakHeap runs one streamed fit under a heap sampler and returns
// the peak live-heap growth over the pre-fit baseline.
func fitPeakHeap(b *testing.B, tr *trace.Trace, opt core.FitOptions) uint64 {
	b.Helper()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	if _, err := core.Fit(tr, opt); err != nil {
		b.Fatal(err)
	}
	close(done)
	<-sampled
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	if peak < base {
		return 0
	}
	return peak - base
}

// BenchmarkScanner measures the incremental binary-trace decoder's
// event throughput, counting events and (monolithic) collecting them into
// an in-memory trace with ReadAuto.
func BenchmarkScanner(b *testing.B) {
	tr, err := world.Generate(world.Options{NumUEs: 500, Duration: cp.Hour * 12, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinaryTrace(&buf, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			sc, err := trace.NewScanner(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for sc.Scan() {
				n++
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			if n != tr.Len() {
				b.Fatalf("scanned %d events, want %d", n, tr.Len())
			}
		}
	})
	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			got, err := trace.ReadAuto(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != tr.Len() {
				b.Fatalf("read %d events, want %d", got.Len(), tr.Len())
			}
		}
	})
}

// BenchmarkStreamThroughput measures the streaming generate→write
// pipeline end to end (generator source into the binary writer), in the
// ledger's units. The one sub-benchmark keeps the name the ledger
// recorded it under when a per-event pipe ran beside it.
func BenchmarkStreamThroughput(b *testing.B) {
	l := lab(b)
	models, err := l.Models()
	if err != nil {
		b.Fatal(err)
	}
	ms := models["ours"]
	b.Run("batched", func(b *testing.B) {
		events := 0
		b.ResetTimer()
		m0 := mallocs()
		for i := 0; i < b.N; i++ {
			src, err := core.NewSource(ms, core.GenOptions{
				NumUEs:    2000,
				StartHour: 18,
				Duration:  cp.Hour,
				Seed:      uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			sw := trace.NewStreamWriter(io.Discard)
			cs := newBenchCountingSink(sw)
			if err := trace.CopyBatches(cs, src); err != nil {
				b.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				b.Fatal(err)
			}
			events += cs.events
		}
		allocs := mallocs() - m0
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
	})
}

// benchCountingSink tallies events while forwarding whole batches to
// the writer's native batched face, so counting costs one call per
// batch on the batched path rather than one per event.
type benchCountingSink struct {
	sink   trace.EventSink
	bsink  trace.BatchSink
	events int
}

func newBenchCountingSink(sink trace.EventSink) *benchCountingSink {
	return &benchCountingSink{sink: sink, bsink: trace.AsBatchSink(sink)}
}

func (c *benchCountingSink) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	return c.sink.SetDevice(ue, d)
}

func (c *benchCountingSink) Write(e trace.Event) error {
	c.events++
	return c.sink.Write(e)
}

func (c *benchCountingSink) WriteBatch(batch *trace.Batch) error {
	c.events += batch.Len()
	return c.bsink.WriteBatch(batch)
}

// BenchmarkMMEThroughput measures how fast the simulated core consumes
// control events.
func BenchmarkMMEThroughput(b *testing.B) {
	tr, err := world.Generate(world.Options{NumUEs: 500, Duration: cp.Hour * 6, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mcn.New(sm.LTE2Level())
		if _, err := m.ProcessTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "events/op")
}
