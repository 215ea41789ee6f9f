package sm

import (
	"testing"

	"cptraffic/internal/cp"
)

func TestLTE2LevelStructure(t *testing.T) {
	m := LTE2Level()
	if m.NumStates() != int(numLTEStates) {
		t.Fatalf("NumStates = %d", m.NumStates())
	}
	// Top-level mapping.
	wantTop := map[State]cp.UEState{
		LTEDeregistered: cp.StateDeregistered,
		LTESrvReqS:      cp.StateConnected,
		LTEHoS:          cp.StateConnected,
		LTETauSConn:     cp.StateConnected,
		LTES1RelS1:      cp.StateIdle,
		LTETauSIdle:     cp.StateIdle,
		LTES1RelS2:      cp.StateIdle,
	}
	for s, top := range wantTop {
		if m.Top(s) != top {
			t.Errorf("Top(%s) = %v, want %v", m.StateName(s), m.Top(s), top)
		}
	}
}

func TestLTE2LevelEdges(t *testing.T) {
	m := LTE2Level()
	type step struct {
		from State
		ev   cp.EventType
		to   State
		ok   bool
	}
	steps := []step{
		{LTEDeregistered, cp.Attach, LTESrvReqS, true},
		{LTEDeregistered, cp.ServiceRequest, 0, false},
		{LTEDeregistered, cp.Handover, 0, false},
		{LTESrvReqS, cp.Handover, LTEHoS, true},
		{LTESrvReqS, cp.TrackingAreaUpdate, LTETauSConn, true},
		{LTESrvReqS, cp.S1ConnRelease, LTES1RelS1, true},
		{LTESrvReqS, cp.Detach, LTEDeregistered, true},
		{LTESrvReqS, cp.ServiceRequest, 0, false}, // already connected
		{LTEHoS, cp.Handover, LTEHoS, true},       // self-loop
		{LTEHoS, cp.TrackingAreaUpdate, LTETauSConn, true},
		{LTETauSConn, cp.TrackingAreaUpdate, LTETauSConn, true}, // self-loop
		{LTETauSConn, cp.Handover, LTEHoS, true},
		{LTES1RelS1, cp.ServiceRequest, LTESrvReqS, true},
		{LTES1RelS1, cp.TrackingAreaUpdate, LTETauSIdle, true},
		{LTES1RelS1, cp.Handover, 0, false}, // HO forbidden in IDLE
		{LTETauSIdle, cp.S1ConnRelease, LTES1RelS2, true},
		{LTETauSIdle, cp.ServiceRequest, 0, false}, // starred arrow rule
		{LTES1RelS2, cp.TrackingAreaUpdate, LTETauSIdle, true},
		{LTES1RelS2, cp.ServiceRequest, LTESrvReqS, true},
		{LTES1RelS2, cp.Handover, 0, false},
	}
	for _, s := range steps {
		to, ok := m.Next(s.from, s.ev)
		if ok != s.ok || (ok && to != s.to) {
			t.Errorf("Next(%s, %s) = (%s, %v), want (%s, %v)",
				m.StateName(s.from), s.ev, m.StateName(to), ok, m.StateName(s.to), s.ok)
		}
	}
}

func TestHandoverImpossibleInIdle(t *testing.T) {
	// The defining property of the two-level machine: HO can never be
	// generated from any IDLE or DEREGISTERED state.
	m := LTE2Level()
	for s := 0; s < m.NumStates(); s++ {
		st := State(s)
		if m.Top(st) == cp.StateConnected {
			continue
		}
		if _, ok := m.Next(st, cp.Handover); ok {
			t.Errorf("HO edge exists from non-CONNECTED state %s", m.StateName(st))
		}
	}
}

func TestEMMECMStructure(t *testing.T) {
	m := EMMECM()
	if m.NumStates() != 3 {
		t.Fatalf("NumStates = %d", m.NumStates())
	}
	steps := []struct {
		from State
		ev   cp.EventType
		to   State
		ok   bool
	}{
		{EEDeregistered, cp.Attach, EEConnected, true},
		{EEConnected, cp.S1ConnRelease, EEIdle, true},
		{EEConnected, cp.Detach, EEDeregistered, true},
		{EEIdle, cp.ServiceRequest, EEConnected, true},
		{EEIdle, cp.Detach, EEDeregistered, true},
		// HO/TAU are not part of the EMM-ECM machine at all.
		{EEConnected, cp.Handover, 0, false},
		{EEConnected, cp.TrackingAreaUpdate, 0, false},
		{EEIdle, cp.TrackingAreaUpdate, 0, false},
	}
	for _, s := range steps {
		to, ok := m.Next(s.from, s.ev)
		if ok != s.ok || (ok && to != s.to) {
			t.Errorf("Next(%s,%s) = (%v,%v)", m.StateName(s.from), s.ev, to, ok)
		}
	}
}

func TestFiveGSAHasNoTAU(t *testing.T) {
	m := FiveGSA()
	if m.NumStates() != NumSAStates {
		t.Fatalf("NumStates = %d", m.NumStates())
	}
	for s := 0; s < m.NumStates(); s++ {
		if _, ok := m.Next(State(s), cp.TrackingAreaUpdate); ok {
			t.Errorf("TAU edge exists in 5G SA from %s", m.StateName(State(s)))
		}
	}
	// HO self-loop kept, IDLE single state.
	if to, ok := m.Next(SAHoS, cp.Handover); !ok || to != SAHoS {
		t.Error("HO self-loop missing in 5G SA")
	}
	if to, ok := m.Next(SAHoS, cp.S1ConnRelease); !ok || to != SAIdle {
		t.Error("AN_REL from HO_S missing")
	}
	if to, ok := m.Next(SAIdle, cp.ServiceRequest); !ok || to != SASrvReqS {
		t.Error("SRV_REQ from CM-IDLE missing")
	}
}

func TestStateByName(t *testing.T) {
	m := LTE2Level()
	if got := m.StateName(LTETauSIdle); got != "TAU_S_IDLE" {
		t.Fatalf("StateName(LTETauSIdle) = %q", got)
	}
	if m.StateName(State(99)) != "?" {
		t.Fatal("out-of-range StateName")
	}
}

func TestForcedStates(t *testing.T) {
	m := LTE2Level()
	want := map[cp.EventType]State{
		cp.Attach:             LTESrvReqS,
		cp.Detach:             LTEDeregistered,
		cp.ServiceRequest:     LTESrvReqS,
		cp.S1ConnRelease:      LTES1RelS1,
		cp.Handover:           LTEHoS,
		cp.TrackingAreaUpdate: LTETauSConn,
	}
	for e, s := range want {
		if m.Forced(e) != s {
			t.Errorf("Forced(%s) = %s, want %s", e, m.StateName(m.Forced(e)), m.StateName(s))
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Every (state, event) pair has at most one successor in all machines.
	for _, m := range []*Machine{LTE2Level(), EMMECM(), FiveGSA()} {
		for s := range m.Edges {
			seen := map[cp.EventType]int{}
			for _, e := range m.Edges[s] {
				seen[e.Event]++
				if seen[e.Event] > 1 {
					t.Errorf("%s: state %s has %d edges on %v",
						m.Name, m.StateName(State(s)), seen[e.Event], e.Event)
				}
			}
		}
	}
}

func TestAllStatesReachableFromInitial(t *testing.T) {
	for _, m := range []*Machine{LTE2Level(), EMMECM(), FiveGSA()} {
		reach := map[State]bool{m.Initial: true}
		frontier := []State{m.Initial}
		for len(frontier) > 0 {
			s := frontier[0]
			frontier = frontier[1:]
			for _, e := range m.Edges[s] {
				if !reach[e.To] {
					reach[e.To] = true
					frontier = append(frontier, e.To)
				}
			}
		}
		if len(reach) != m.NumStates() {
			t.Errorf("%s: only %d of %d states reachable", m.Name, len(reach), m.NumStates())
		}
	}
}

func TestEveryStateCanEventuallyDeregister(t *testing.T) {
	// Liveness: from every state there is a path back to the initial
	// (DEREGISTERED) state, so generated UEs can always power-cycle.
	for _, m := range []*Machine{LTE2Level(), EMMECM(), FiveGSA()} {
		// Reverse reachability from Initial.
		rev := make(map[State][]State)
		for s := range m.Edges {
			for _, e := range m.Edges[s] {
				rev[e.To] = append(rev[e.To], State(s))
			}
		}
		ok := map[State]bool{m.Initial: true}
		frontier := []State{m.Initial}
		for len(frontier) > 0 {
			s := frontier[0]
			frontier = frontier[1:]
			for _, p := range rev[s] {
				if !ok[p] {
					ok[p] = true
					frontier = append(frontier, p)
				}
			}
		}
		for s := 0; s < m.NumStates(); s++ {
			if !ok[State(s)] {
				t.Errorf("%s: no path from %s to DEREGISTERED", m.Name, m.StateName(State(s)))
			}
		}
	}
}

func TestHasSubStructure(t *testing.T) {
	if !LTE2Level().HasSubStructure() {
		t.Fatal("LTE2Level should have sub-structure")
	}
	if !FiveGSA().HasSubStructure() {
		t.Fatal("FiveGSA should have sub-structure (HO self-loop)")
	}
	if EMMECM().HasSubStructure() {
		t.Fatal("EMMECM should not have sub-structure")
	}
}
