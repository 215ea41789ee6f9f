package core

import (
	"bytes"
	"fmt"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// TestBatchedMatchesStreamed is the identity test on the core engine:
// across seeds × workers, the parallel Generate assembly and the
// streaming Source.ScanBatches must yield the same event sequence, and
// writing the generated trace and the streaming source must produce the
// same bytes for both codecs. Batch boundaries are an implementation
// detail; the trace is the contract.
func TestBatchedMatchesStreamed(t *testing.T) {
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	for _, seed := range []uint64{1, 7, 99} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				opt := GenOptions{NumUEs: 80, StartHour: 5, Duration: 2 * cp.Hour, Seed: seed, Workers: workers}
				gen, err := Generate(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				src, err := NewSource(ms, opt)
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
					t.Fatal("generated no events; test is vacuous")
				}
				if len(batched) != len(gen.Events) {
					t.Fatalf("ScanBatches: %d events, Generate produced %d", len(batched), len(gen.Events))
				}
				for i := range batched {
					if batched[i] != gen.Events[i] {
						t.Fatalf("ScanBatches: event %d = %v, Generate produced %v", i, batched[i], gen.Events[i])
					}
				}

				// Byte identity through both writers: the generated trace
				// vs the streaming source.
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

// TestGenerateAllocsPerEvent gates the arena work: the compiled
// end-to-end Generate path must average at most 0.02 heap allocations
// per emitted event (issue target; the measured figure is ~0.002).
func TestGenerateAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	opt := GenOptions{NumUEs: 200, StartHour: 0, Duration: 2 * cp.Hour, Seed: 3, Workers: 1}
	warm, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	events := len(warm.Events)
	if events == 0 {
		t.Fatal("generated no events; test is vacuous")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Generate(ms, opt); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs / %d events = %.5f allocs/event", allocs, events, perEvent)
	if perEvent > 0.02 {
		t.Fatalf("allocs/event = %.5f, want <= 0.02", perEvent)
	}
}
