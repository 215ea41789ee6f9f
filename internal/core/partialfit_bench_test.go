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
