package world

import (
	"bytes"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// TestWorldGenerationEquivalence pins the simulator's byte-level
// determinism across the generation matrix: for each seed, the
// in-memory trace is identical for every worker count, and the
// streaming Source path renders to the same text bytes.
func TestWorldGenerationEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		var ref []byte
		for _, workers := range []int{1, 8} {
			opt := Options{NumUEs: 120, Duration: 5 * cp.Hour, Seed: seed, Workers: workers}
			tr, err := Generate(opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			if ref == nil {
				ref = b
			} else if !bytes.Equal(ref, b) {
				t.Fatalf("seed=%d workers=%d: worker count changed the trace bytes", seed, workers)
			}

			src, err := NewSource(opt)
			if err != nil {
				t.Fatal(err)
			}
			var sbuf bytes.Buffer
			tw := trace.NewTextWriter(&sbuf)
			if err := trace.CopyBatches(tw, src); err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, sbuf.Bytes()) {
				t.Fatalf("seed=%d workers=%d: streamed source differs from in-memory trace", seed, workers)
			}
		}
	}
}

// TestUESimSteadyStateAllocs pins the loop production runs at zero
// steady-state allocations: drainUntil called the way the streaming Source
// calls it — rising limits, a reused KeyRun already grown past anything
// one call appends — once the simulator's queue has reached its
// high-water capacity. Skipped under the race detector, which changes
// allocation behavior.
func TestUESimSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	opt := Options{NumUEs: 1, Duration: 365 * cp.Day, Seed: 5}
	mix, err := resolveMix(opt)
	if err != nil {
		t.Fatal(err)
	}
	lay, fits := trace.NewKeyLayout(0, opt.Duration-1, 0)
	if !fits {
		t.Fatal("layout does not fit")
	}
	sim, _ := newUESim(opt, mix, stats.NewRNG(opt.Seed), 0)
	const runs = 4000
	// Warm-up without Reset: the run grows to hold a month of keys, far
	// more than the hour one measured call appends, and the simulator's
	// queue reaches its high-water capacity.
	var run trace.KeyRun
	limit := 30 * cp.Day
	if sim.drainUntil(limit, &lay, &run) == trace.NoPending {
		t.Fatal("simulator exhausted during warm-up")
	}
	measuredFrom, alive := limit, true
	avg := testing.AllocsPerRun(runs, func() {
		run.Reset()
		limit += cp.Hour
		if sim.drainUntil(limit, &lay, &run) == trace.NoPending {
			alive = false
		}
	})
	if !alive {
		t.Fatal("simulator exhausted during measurement")
	}
	// lastT is the newest event the simulator has stamped: events were
	// still being drawn in the second half of the measured span.
	if mid := measuredFrom + (limit-measuredFrom)/2; sim.lastT < mid {
		t.Fatalf("no event after %d in a measured span ending at %d; test is close to vacuous", sim.lastT, limit)
	}
	if avg > 0 {
		t.Errorf("steady-state drainUntil allocates %.4f allocs/call, want 0", avg)
	}
}
