package world

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// TestBatchedMatchesStreamed is the world half of the identity test:
// across seeds × workers, the parallel Generate assembly and the
// streaming Source.ScanBatches must yield the same event sequence, and
// writing the generated trace and the streaming source must produce the
// same bytes for both codecs.
func TestBatchedMatchesStreamed(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				opt := Options{NumUEs: 90, Duration: 3 * cp.Hour, Seed: seed, Workers: workers}
				gen, err := Generate(opt)
				if err != nil {
					t.Fatal(err)
				}
				src, err := NewSource(opt)
				if err != nil {
					t.Fatal(err)
				}
				var batched []trace.Event
				if err := src.ScanBatches(func(b *trace.Batch) error {
					batched = b.AppendTo(batched)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(gen.Events) == 0 {
					t.Fatal("simulated no events; test is vacuous")
				}
				if len(batched) != len(gen.Events) {
					t.Fatalf("ScanBatches: %d events, Generate produced %d", len(batched), len(gen.Events))
				}
				for i := range batched {
					if batched[i] != gen.Events[i] {
						t.Fatalf("ScanBatches: event %d = %v, Generate produced %v", i, batched[i], gen.Events[i])
					}
				}

				for _, codec := range []string{"text", "binary"} {
					mk := func(w *bytes.Buffer) interface {
						trace.EventSink
						Close() error
					} {
						if codec == "text" {
							return trace.NewTextWriter(w)
						}
						return trace.NewStreamWriter(w)
					}
					var fromTrace, fromSource bytes.Buffer
					w1 := mk(&fromTrace)
					if err := trace.CopyBatches(w1, gen); err != nil {
						t.Fatal(err)
					}
					if err := w1.Close(); err != nil {
						t.Fatal(err)
					}
					w2 := mk(&fromSource)
					if err := trace.CopyBatches(w2, src); err != nil {
						t.Fatal(err)
					}
					if err := w2.Close(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fromTrace.Bytes(), fromSource.Bytes()) {
						t.Fatalf("%s: streaming source bytes differ from generated trace bytes", codec)
					}
				}
			})
		}
	}
}

// TestWorldAllocsPerEvent gates the arena work on the simulator's
// end-to-end path: at most 0.02 heap allocations per emitted event.
func TestWorldAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	opt := Options{NumUEs: 200, Duration: 3 * cp.Hour, Seed: 3, Workers: 1}
	warm, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	events := len(warm.Events)
	if events == 0 {
		t.Fatal("simulated no events; test is vacuous")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Generate(opt); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs / %d events = %.5f allocs/event", allocs, events, perEvent)
	if perEvent > 0.02 {
		t.Fatalf("allocs/event = %.5f, want <= 0.02", perEvent)
	}
}

// TestWorldBytesPerEvent gates assembly's memory traffic beside
// TestWorldAllocsPerEvent's allocation count: bytes allocated per emitted
// event, on a population large enough to amortize the fixed histograms
// and the registry. With one worker the budget is the key run reserved at
// twice its keys (16 B, an eighth of forecast slack on both halves, and
// the sixteenth of it that grew geometrically before KeyRun.Forecast),
// which becomes the event slice — measured 22.0, held to 24 for a
// forecast that misses the density by a few percent. With several, the
// runs (8 B and slack), the partitioned keys (8 B) and the events
// (16 B) — measured 36.3, held to 48. TotalAlloc counts bytes, not time,
// so the figures repeat (to within a few KB of the runtime's own
// allocations).
func TestWorldBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	for _, tc := range []struct {
		workers int
		budget  float64
	}{{1, 24}, {2, 48}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			opt := Options{NumUEs: 20000, Duration: 3 * cp.Hour, Offset: 9 * cp.Hour, Seed: 3, Workers: tc.workers}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := Generate(opt)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Events))
			t.Logf("%d B / %d events = %.2f B/event", after.TotalAlloc-before.TotalAlloc, len(tr.Events), perEvent)
			if perEvent > tc.budget {
				t.Fatalf("allocated %.2f B/event, want <= %g", perEvent, tc.budget)
			}
		})
	}
}

// TestSourceScanBytesPerUE gates the streaming source's footprint: what one
// ScanBatches allocates, per UE of a population large enough to amortize
// the window buffers. Beside the ueSim and the pending time, a UE owns its
// event queue, grown by append to the longest connected visit it has
// queued — two allocations a UE in this hour, and the only ones that scale
// with anything: the gate on the count is per UE for that reason (per
// event it would measure how short the hour is; the loser tree made the
// same two). There is no per-UE run buffer: the tree's k × 64-event slab
// alone was 1 KiB per UE, 1 362 B/UE in all against 334 now.
func TestSourceScanBytesPerUE(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	opt := Options{NumUEs: 20000, Duration: cp.Hour, Offset: 9 * cp.Hour, Seed: 3}
	src, err := NewSource(opt)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = src.ScanBatches(func(b *trace.Batch) error {
		events += b.Len()
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("simulated no events; test is vacuous")
	}
	perUE := float64(after.TotalAlloc-before.TotalAlloc) / float64(opt.NumUEs)
	allocsPerUE := float64(after.Mallocs-before.Mallocs) / float64(opt.NumUEs)
	t.Logf("%d events: %d B / %d UEs = %.1f B/UE, %d allocs = %.3f allocs/UE",
		events, after.TotalAlloc-before.TotalAlloc, opt.NumUEs, perUE, after.Mallocs-before.Mallocs, allocsPerUE)
	if perUE > 640 {
		t.Fatalf("allocated %.1f B/UE, want <= 640", perUE)
	}
	if allocsPerUE > 3 {
		t.Fatalf("%.3f allocs/UE, want <= 3", allocsPerUE)
	}
}
