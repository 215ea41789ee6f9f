package main

import (
	"testing"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/mcn"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// collect runs tr through a fresh statCollector on machine m, as main
// does over a scanned file.
func collect(t *testing.T, m *sm.Machine, tr *trace.Trace) *statCollector {
	t.Helper()
	s := newStatCollector(m)
	if err := tr.Devices(s.register); err != nil {
		t.Fatal(err)
	}
	err := tr.ScanBatches(func(b *trace.Batch) error {
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
	return s
}

// TestConformanceMatchesReplay holds tracestat's violation count, over
// events of all UEs interleaved in time, to the sum of sm.Replay over
// each UE's sequence from its inferred state, and to the MME's count, on
// a trace generated by the Base model — whose free HO and TAU processes
// violate the two-level machines — for every -machine. The counts are
// pinned too: they are what tracestat printed before the three checks
// shared sm.Cursor.
func TestConformanceMatchesReplay(t *testing.T) {
	train, err := world.Generate(world.Options{NumUEs: 200, Duration: 6 * cp.Hour, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Fit(train, core.FitOptions{Method: "base"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Generate(ms, core.GenOptions{NumUEs: 300, Duration: 6 * cp.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m    *sm.Machine
		want int
	}{
		{sm.LTE2Level(), 1759},
		{sm.EMMECM(), 4307},
		{sm.FiveGSA(), 3559},
	} {
		replay := 0
		for _, evs := range tr.PerUE() {
			replay += sm.Replay(c.m, sm.InferInitial(c.m, evs), evs).Violations
		}
		s := collect(t, c.m, tr)
		mme := mcn.New(c.m).ProcessTrace(tr).Violations
		if s.violations != replay || mme != replay || replay != c.want {
			t.Errorf("%s: tracestat %d, MME %d, Σ sm.Replay %d violations; want %d",
				c.m.Name, s.violations, mme, replay, c.want)
		}
	}
}

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

	s := collect(t, sm.LTE2Level(), tr)
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
