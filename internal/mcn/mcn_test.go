package mcn

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

func ev(tSec float64, ue cp.UEID, e cp.EventType) trace.Event {
	return trace.Event{T: cp.MillisFromSeconds(tSec), UE: ue, Type: e}
}

func TestMMEHappyPath(t *testing.T) {
	m := New(sm.LTE2Level())
	seq := []trace.Event{
		ev(0, 1, cp.Attach),
		ev(1, 1, cp.Handover),
		ev(2, 1, cp.S1ConnRelease),
		ev(3, 1, cp.ServiceRequest),
		ev(4, 1, cp.Detach),
	}
	for _, e := range seq {
		m.Process(e)
	}
	s := m.Stats()
	if s.Violations != 0 {
		t.Fatalf("violations = %d", s.Violations)
	}
	if s.Processed != 5 || s.Transactions[cp.Handover] != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Registered != 0 || s.Connected != 0 {
		t.Fatalf("gauges = %+v", s)
	}
	if s.PeakConnected != 1 {
		t.Fatalf("peak = %d", s.PeakConnected)
	}
}

func TestMMEGauges(t *testing.T) {
	m := New(sm.LTE2Level())
	for ueID := 1; ueID <= 3; ueID++ {
		m.Process(ev(float64(ueID), cp.UEID(ueID), cp.Attach))
	}
	s := m.Stats()
	if s.Registered != 3 || s.Connected != 3 || s.PeakConnected != 3 {
		t.Fatalf("gauges = %+v", s)
	}
	m.Process(ev(10, 1, cp.S1ConnRelease))
	if got := m.Stats(); got.Connected != 2 || got.Registered != 3 {
		t.Fatalf("after release: %+v", got)
	}
}

func TestMMEViolationRecovery(t *testing.T) {
	m := New(sm.LTE2Level())
	m.Process(ev(0, 1, cp.ServiceRequest))
	// SRV_REQ while already connected is a violation.
	m.Process(ev(1, 1, cp.ServiceRequest))
	if m.Stats().Violations != 1 {
		t.Fatalf("violations = %d", m.Stats().Violations)
	}
}

func TestMMEInfersMidStreamState(t *testing.T) {
	// A trace slice starting with S1_CONN_REL implies the UE was
	// connected; no violation.
	m := New(sm.LTE2Level())
	m.Process(ev(0, 7, cp.S1ConnRelease))
	if m.Stats().Violations != 0 {
		t.Fatal("mid-stream inference failed")
	}
	if c, ok := m.ues[7]; !ok || c.State != sm.LTES1RelS1 {
		t.Fatalf("cursor = %+v, %v", c, ok)
	}
}

func TestMMEProcessesWorldTraceCleanly(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 150, Duration: 3 * cp.Hour, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sm.LTE2Level())
	stats := m.ProcessTrace(tr)
	if stats.Violations != 0 {
		t.Fatalf("world trace caused %d violations", stats.Violations)
	}
	if stats.Processed != tr.Len() {
		t.Fatalf("processed %d of %d", stats.Processed, tr.Len())
	}
	if stats.PeakConnected == 0 {
		t.Fatal("no UE ever connected")
	}
}

func TestMMEGaugesNeverNegative(t *testing.T) {
	// UEs admitted mid-stream in an inferred CONNECTED/registered state
	// must count toward the gauges, or releases drive them negative.
	m := New(sm.LTE2Level())
	for ueID := 1; ueID <= 50; ueID++ {
		// First event is a release: the UE was connected before the
		// window started.
		m.Process(ev(float64(ueID), cp.UEID(ueID), cp.S1ConnRelease))
		s := m.Stats()
		if s.Connected < 0 || s.Registered < 0 {
			t.Fatalf("gauges negative after UE %d: %+v", ueID, s)
		}
	}
	// Each UE counts as connected on admission, before its release.
	if got := m.Stats(); got.Registered != 50 || got.Connected != 0 || got.PeakConnected != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestLoadSeries(t *testing.T) {
	tr := trace.New()
	tr.SetDevice(1, cp.Phone)
	tr.Append(ev(0.5, 1, cp.ServiceRequest))
	tr.Append(ev(1.5, 1, cp.S1ConnRelease))
	tr.Append(ev(1.9, 1, cp.ServiceRequest))
	got := LoadSeries(tr, cp.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("load = %v", got)
	}
	if LoadSeries(trace.New(), cp.Second) != nil {
		t.Fatal("empty trace should give nil")
	}
	if LoadSeries(tr, 0) != nil {
		t.Fatal("zero bin should give nil")
	}
}
