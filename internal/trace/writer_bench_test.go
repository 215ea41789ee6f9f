package trace

import (
	"os"
	"path/filepath"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// benchStream draws n events in canonical order the way gen_stream_deep
// delivers them: nUEs dense ids, times climbing to about 1.2e9 ms (two
// weeks, so 9- and 10-digit timestamps), few equal neighbours.
func benchStream(n, nUEs int) *Batch {
	r := stats.NewRNG(1)
	b := NewBatch(n)
	t := cp.Millis(0)
	for i := 0; i < n; i++ {
		t += cp.Millis(r.Intn(int(14*24*cp.Hour) / n * 2))
		b.Append(Event{T: t, UE: cp.UEID(r.Intn(nUEs)), Type: cp.EventType(r.Intn(cp.NumEventTypes))})
	}
	tr := &Trace{Events: b.AppendTo(nil)}
	tr.Sort() // only the (UE, type) ties move
	b.Reset()
	for _, e := range tr.Events {
		b.Append(e)
	}
	return b
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// encodeStream registers nUEs dense ids on w and pours all through it in
// DefaultBatchSize batches: what CopyBatches does to a writer.
func encodeStream(tb testing.TB, w incrementalWriter, all *Batch, nUEs int) {
	for ue := 0; ue < nUEs; ue++ {
		if err := w.SetDevice(cp.UEID(ue), cp.Phone); err != nil {
			tb.Fatal(err)
		}
	}
	for off := 0; off < all.Len(); off += DefaultBatchSize {
		end := min(off+DefaultBatchSize, all.Len())
		view := Batch{T: all.T[off:end], UE: all.UE[off:end], Type: all.Type[off:end]}
		if err := w.WriteBatch(&view); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkWriteBatch times the two encoders alone — the layer bench/
// reports as trace.encode.ns_per_event — over 1 Mi events of 2 000 UEs.
func BenchmarkWriteBatch(b *testing.B) {
	const nEvents, nUEs = 1 << 20, 2000
	all := benchStream(nEvents, nUEs)
	for i, name := range []string{"binary", "text"} {
		wr := incrementalWriters[i]
		b.Run(name, func(b *testing.B) {
			var out countingWriter
			for i := 0; i < b.N; i++ {
				encodeStream(b, wr.new(&out), all, nUEs)
			}
			events := float64(b.N) * nEvents
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(out.n)/events, "B/event")
		})
	}
}

// BenchmarkFileSourceScanBatches times the read side — decode, registry
// and order checks — of a v2 file and of a text file of the same stream.
func BenchmarkFileSourceScanBatches(b *testing.B) {
	const nEvents, nUEs = 1 << 18, 2000
	all := benchStream(nEvents, nUEs)
	for i, name := range []string{"binary", "text"} {
		wr := incrementalWriters[i]
		b.Run(name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), name)
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			encodeStream(b, wr.new(f), all, nUEs)
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			src, err := NewFileSource(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				if err := src.ScanBatches(func(bt *Batch) error { got += bt.Len(); return nil }); err != nil || got != nEvents {
					b.Fatalf("scanned %d of %d events: %v", got, nEvents, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*nEvents), "ns/event")
		})
	}
}
