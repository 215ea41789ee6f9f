package sm

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

func TestCategory1(t *testing.T) {
	want := map[cp.EventType]bool{
		cp.Attach:             true,
		cp.Detach:             true,
		cp.ServiceRequest:     true,
		cp.S1ConnRelease:      true,
		cp.Handover:           false,
		cp.TrackingAreaUpdate: false,
	}
	for e, w := range want {
		if Category1(e) != w {
			t.Errorf("Category1(%v) = %v", e, !w)
		}
	}
}

func TestInferMacroInitial(t *testing.T) {
	cases := []struct {
		seq  []trace.Event
		want cp.UEState
	}{
		{evs(0.0, cp.Attach), cp.StateDeregistered},
		{evs(0.0, cp.ServiceRequest), cp.StateIdle},
		{evs(0.0, cp.S1ConnRelease), cp.StateConnected},
		{evs(0.0, cp.Detach), cp.StateConnected},
		{evs(0.0, cp.Handover, 1.0, cp.ServiceRequest), cp.StateIdle}, // first Cat-1 wins
		{evs(0.0, cp.Handover), cp.StateConnected},                    // HO implies CONNECTED
		{evs(0.0, cp.TrackingAreaUpdate), cp.StateIdle},
		{nil, cp.StateIdle},
	}
	for i, c := range cases {
		if got := InferMacroInitial(c.seq); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestMacroBreakdownAttribution(t *testing.T) {
	seq := evs(
		0.0, cp.Attach, // CONNECTED
		1.0, cp.Handover, // HO in CONNECTED
		2.0, cp.S1ConnRelease, // IDLE
		3.0, cp.Handover, // HO in IDLE (protocol violation, e.g. baseline)
		4.0, cp.TrackingAreaUpdate, // TAU in IDLE
		5.0, cp.ServiceRequest, // CONNECTED
		6.0, cp.TrackingAreaUpdate, // TAU in CONNECTED
	)
	b := MacroBreakdown(seq, cp.StateDeregistered)
	if b[cp.Handover][cp.StateConnected] != 1 || b[cp.Handover][cp.StateIdle] != 1 {
		t.Fatalf("HO = %v", b[cp.Handover])
	}
	if b[cp.TrackingAreaUpdate][cp.StateIdle] != 1 || b[cp.TrackingAreaUpdate][cp.StateConnected] != 1 {
		t.Fatalf("TAU = %v", b[cp.TrackingAreaUpdate])
	}
	if b[cp.ServiceRequest][cp.StateConnected] != 1 {
		t.Fatalf("SRV_REQ = %v", b[cp.ServiceRequest])
	}
	if b[cp.S1ConnRelease][cp.StateIdle] != 1 {
		t.Fatalf("S1_CONN_REL = %v", b[cp.S1ConnRelease])
	}
}

func TestMacroBreakdownViolationDoesNotDesync(t *testing.T) {
	// A HO while IDLE must not flip the tracked state: the next TAU is
	// still an IDLE TAU.
	seq := evs(
		0.0, cp.S1ConnRelease,
		1.0, cp.Handover,
		2.0, cp.TrackingAreaUpdate,
	)
	b := MacroBreakdown(seq, cp.StateConnected)
	if b[cp.TrackingAreaUpdate][cp.StateIdle] != 1 {
		t.Fatalf("TAU = %v, want IDLE", b[cp.TrackingAreaUpdate])
	}
}

func TestMacroSojourns(t *testing.T) {
	seq := evs(
		0.0, cp.Attach, // enter CONNECTED
		10.0, cp.S1ConnRelease, // CONNECTED 10s, enter IDLE
		15.0, cp.TrackingAreaUpdate, // Cat-2: ignored for state tracking
		20.0, cp.S1ConnRelease, // Cat-1 but no state change: visit continues
		70.0, cp.ServiceRequest, // IDLE 60s, enter CONNECTED
		80.0, cp.Detach, // CONNECTED 10s, enter DEREGISTERED (open visit)
	)
	so := MacroSojourns(seq, cp.StateDeregistered)
	conn := so[cp.StateConnected]
	idle := so[cp.StateIdle]
	if len(conn) != 2 || conn[0] != 10 || conn[1] != 10 {
		t.Fatalf("CONNECTED = %v", conn)
	}
	if len(idle) != 1 || idle[0] != 60 {
		t.Fatalf("IDLE = %v", idle)
	}
	if len(so[cp.StateDeregistered]) != 0 {
		t.Fatalf("DEREGISTERED = %v", so[cp.StateDeregistered])
	}
}

// TestSubEntryAndEdgeIsBottom pins the sub-machine entry points and,
// per edge, whether it stays within its macro state (a bottom-level
// transition) and whether it exists at all.
func TestSubEntryAndEdgeIsBottom(t *testing.T) {
	m := LTE2Level()
	if m.SubEntry(cp.StateConnected) != LTESrvReqS {
		t.Fatal("CONNECTED sub-entry wrong")
	}
	if m.SubEntry(cp.StateIdle) != LTES1RelS1 {
		t.Fatal("IDLE sub-entry wrong")
	}
	if m.SubEntry(cp.StateDeregistered) != LTEDeregistered {
		t.Fatal("DEREGISTERED sub-entry wrong")
	}

	cases := []struct {
		from     State
		ev       cp.EventType
		isBottom bool
		ok       bool
	}{
		{LTESrvReqS, cp.Handover, true, true},           // stays CONNECTED
		{LTESrvReqS, cp.S1ConnRelease, false, true},     // leaves to IDLE
		{LTETauSIdle, cp.S1ConnRelease, true, true},     // stays IDLE
		{LTES1RelS1, cp.ServiceRequest, false, true},    // leaves to CONNECTED
		{LTEDeregistered, cp.Handover, false, false},    // no edge
		{LTEHoS, cp.Handover, true, true},               // self-loop
		{LTES1RelS2, cp.TrackingAreaUpdate, true, true}, // idle-internal
	}
	for _, c := range cases {
		to, ok := m.Next(c.from, c.ev)
		isBottom := ok && m.Top(to) == m.Top(c.from)
		if isBottom != c.isBottom || ok != c.ok {
			t.Errorf("edge (%s,%s): bottom %v, exists %v; want %v, %v",
				m.StateName(c.from), c.ev, isBottom, ok, c.isBottom, c.ok)
		}
	}

	sa := FiveGSA()
	if sa.SubEntry(cp.StateIdle) != SAIdle {
		t.Fatal("5G SA idle sub-entry wrong")
	}
	ee := EMMECM()
	if ee.SubEntry(cp.StateConnected) != EEConnected {
		t.Fatal("EMM-ECM sub-entry wrong")
	}
}
