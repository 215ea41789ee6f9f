package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
)

var benchBuilt *ModelSet

// BenchmarkPartialFitBuild times Build alone — the layer bench/ reports
// as core.fit.build_s — for an exact and a sketched fit of a 300-UE,
// one-day toy world on one worker. Build consumes its partial, so every
// iteration ingests the trace afresh with the timer stopped (a decoded
// checkpoint would not do: its pools arrive already in canonical order).
// ns/event and allocs/event are per ingested event, like the pipeline
// metrics.
func BenchmarkPartialFitBuild(b *testing.B) {
	tr := toyTrace(b, 300, 24*cp.Hour, 11)
	for _, bc := range []struct {
		name    string
		sketchK int
	}{{"exact", 0}, {"sketch=256", 256}} {
		b.Run(bc.name, func(b *testing.B) {
			opt := FitOptions{Cluster: cluster.Options{ThetaN: 30}, Workers: 1, SketchK: bc.sketchK}
			var ms runtime.MemStats
			var mallocs uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pf, err := NewPartialFit(opt)
				if err != nil {
					b.Fatal(err)
				}
				if err := pf.AddSource(tr); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				benchBuilt, err = pf.Build()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
			}
			events := float64(b.N) * float64(tr.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(mallocs)/events, "allocs/event")
		})
	}
}

// TestPartialFitBuildAllocsPerModel gates what an exact Build allocates
// on BenchmarkPartialFitBuild's world (ours, θn 30, one worker), per
// fitted model (NumModels): at most 65 objects and 56 000 B. Counts and
// samples are read from the layout's slots and pool keys into one count
// slice and one sample block per hour, so a model costs 52.5 objects and
// 54 076 B. Accumulators keyed by maps, with a list per pool, cost 80.8
// objects and 55 980 B, and a fresh [][]T of the pool lists each hour
// 59 956 B. Mallocs and TotalAlloc count objects and bytes, not time, so
// the figures repeat.
func TestPartialFitBuildAllocsPerModel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	pf, err := NewPartialFit(FitOptions{Cluster: cluster.Options{ThetaN: 30}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(toyTrace(t, 300, 24*cp.Hour, 11)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ms, err := pf.Build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	models := float64(ms.NumModels())
	objects := float64(after.Mallocs-before.Mallocs) / models
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / models
	t.Logf("%d models: %.1f objects and %.0f B a model", ms.NumModels(), objects, bytes)
	if objects > 65 || bytes > 56000 {
		t.Fatalf("Build allocates %.1f objects and %.0f B a model, want <= 65 and <= 56000", objects, bytes)
	}
}

// BenchmarkPartialFitIngest times AddSource alone — the layer bench/
// reports as core.fit.ingest.ns_per_event — for an exact and a sketched
// fit of the same world as BenchmarkPartialFitBuild: every iteration
// ingests the whole trace into a fresh partial, constructed with the
// timer stopped. ns/event and allocs/event are per ingested event.
func BenchmarkPartialFitIngest(b *testing.B) {
	tr := toyTrace(b, 300, 24*cp.Hour, 11)
	for _, bc := range []struct {
		name    string
		sketchK int
	}{{"exact", 0}, {"sketch=256", 256}} {
		b.Run(bc.name, func(b *testing.B) {
			opt := FitOptions{Cluster: cluster.Options{ThetaN: 30}, Workers: 1, SketchK: bc.sketchK}
			var ms runtime.MemStats
			var mallocs uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pf, err := NewPartialFit(opt)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				err = pf.AddSource(tr)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
			}
			events := float64(b.N) * float64(tr.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(mallocs)/events, "allocs/event")
		})
	}
}

// BenchmarkModelSave times Save alone — the layer bench/ reports as
// core.model.save_s — on the exact fit of the same world, into a
// destination that discards. MB/s is of the model file written.
func BenchmarkModelSave(b *testing.B) {
	ms := fitToy(b, 300, 24*cp.Hour, 11, FitOptions{Cluster: cluster.Options{ThetaN: 30}, Workers: 1})
	var file bytes.Buffer
	if err := ms.Save(&file); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ms.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelLoad times Load alone — the layer bench/ reports as
// core.model.load_s — on the file BenchmarkModelSave writes, read from
// memory. MB/s is of the model file read.
func BenchmarkModelLoad(b *testing.B) {
	ms := fitToy(b, 300, 24*cp.Hour, 11, FitOptions{Cluster: cluster.Options{ThetaN: 30}, Workers: 1})
	var file bytes.Buffer
	if err := ms.Save(&file); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(file.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
