package main

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// TestBreakdownMatchesEval holds tracestat's per-device breakdown — its
// own O(UEs) tracker, which counts a UE's HO/TAU prefix instead of
// buffering it — to eval.ComputeBreakdown on a small world trace, plus
// UEs that never emit a Category-1 event: HO-only ones (initially
// CONNECTED) and TAU-only ones (initially IDLE).
func TestBreakdownMatchesEval(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 120, Duration: 6 * cp.Hour, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	next := cp.UEID(len(tr.Device))
	for i, e := range []cp.EventType{cp.Handover, cp.Handover, cp.TrackingAreaUpdate, cp.TrackingAreaUpdate} {
		ue := next + cp.UEID(i)
		if err := tr.SetDevice(ue, cp.DeviceTypes[i%cp.NumDeviceTypes]); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			tr.Append(trace.Event{T: cp.Millis(k+1) * 7 * cp.Minute, UE: ue, Type: e})
		}
	}
	tr.Sort()

	s := newStatCollector(sm.LTE2Level())
	if err := tr.Devices(s.register); err != nil {
		t.Fatal(err)
	}
	err = tr.ScanBatches(func(b *trace.Batch) error {
		for i := 0; i < b.Len(); i++ {
			if err := s.push(b.At(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.finish()

	col, err := eval.Collect(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cp.DeviceTypes {
		want := eval.ComputeBreakdown(col, d)
		if s.devTotal[d] != want.Total {
			t.Fatalf("%v: %d events, eval %d", d, s.devTotal[d], want.Total)
		}
		for _, k := range eval.BreakdownKeys {
			if got := float64(s.devCounts[d][k]) / float64(s.devTotal[d]); got != want.Share[k] {
				t.Errorf("%v %s: share %v, eval %v", d, k, got, want.Share[k])
			}
		}
	}
}
