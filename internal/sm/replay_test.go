package sm

import (
	"math"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// evs builds a per-UE event sequence from (time-in-seconds, type) pairs.
func evs(pairs ...interface{}) []trace.Event {
	var out []trace.Event
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, trace.Event{
			T:    cp.MillisFromSeconds(pairs[i].(float64)),
			UE:   1,
			Type: pairs[i+1].(cp.EventType),
		})
	}
	return out
}

func TestReplayCleanSequence(t *testing.T) {
	m := LTE2Level()
	seq := evs(
		0.0, cp.Attach, // DEREG -> SRV_REQ_S
		5.0, cp.Handover, // -> HO_S
		8.0, cp.TrackingAreaUpdate, // -> TAU_S_CONN
		20.0, cp.S1ConnRelease, // -> S1_REL_S_1
		60.0, cp.TrackingAreaUpdate, // -> TAU_S_IDLE
		61.0, cp.S1ConnRelease, // -> S1_REL_S_2
		300.0, cp.ServiceRequest, // -> SRV_REQ_S
		310.0, cp.Detach, // -> DEREG
	)
	res := Replay(m, LTEDeregistered, seq)
	if res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	if res.Final != LTEDeregistered {
		t.Fatalf("final = %s", m.StateName(res.Final))
	}
	if len(res.Transitions) != 8 {
		t.Fatalf("transitions = %d", len(res.Transitions))
	}
	if res.Transitions[0].HasSojourn {
		t.Fatal("first transition must not have a sojourn")
	}
	// Sojourn of HO_S before TAU at t=8 is 3 seconds.
	tr := res.Transitions[2]
	if tr.From != LTEHoS || !tr.HasSojourn || tr.Sojourn != 3*cp.Second {
		t.Fatalf("transition 2 = %+v", tr)
	}
}

func TestReplayViolationRecovery(t *testing.T) {
	m := LTE2Level()
	// HO while DEREGISTERED is a violation; replay must record it and
	// resynchronize to HO_S.
	seq := evs(0.0, cp.Handover, 1.0, cp.S1ConnRelease)
	res := Replay(m, LTEDeregistered, seq)
	if res.Violations != 1 {
		t.Fatalf("violations = %d", res.Violations)
	}
	if !res.Transitions[0].Forced || res.Transitions[0].To != LTEHoS {
		t.Fatalf("forced transition = %+v", res.Transitions[0])
	}
	// After recovery the S1_CONN_REL is legal.
	if res.Transitions[1].Forced {
		t.Fatal("second transition should be clean")
	}
	if res.Final != LTES1RelS1 {
		t.Fatalf("final = %s", m.StateName(res.Final))
	}
}

func TestInferInitial(t *testing.T) {
	m := LTE2Level()
	cases := []struct {
		first cp.EventType
		want  State
	}{
		{cp.Attach, LTEDeregistered},
		{cp.ServiceRequest, LTES1RelS1},
		{cp.S1ConnRelease, LTESrvReqS},
		{cp.Handover, LTESrvReqS},
		{cp.Detach, LTESrvReqS},
		{cp.TrackingAreaUpdate, LTESrvReqS},
	}
	for _, c := range cases {
		got := InferInitial(m, evs(0.0, c.first))
		if got != c.want {
			t.Errorf("InferInitial(%s) = %s, want %s", c.first, m.StateName(got), m.StateName(c.want))
		}
		// Replaying from the inferred state must not violate on the
		// first event.
		res := Replay(m, got, evs(0.0, c.first))
		if res.Violations != 0 {
			t.Errorf("InferInitial(%s) still violates", c.first)
		}
	}
	if InferInitial(m, nil) != m.Initial {
		t.Error("empty sequence should infer the machine's initial state")
	}
}

func TestSojournsByTransition(t *testing.T) {
	m := LTE2Level()
	seq := evs(
		0.0, cp.Attach,
		10.0, cp.S1ConnRelease,
		40.0, cp.ServiceRequest,
		45.0, cp.S1ConnRelease,
		95.0, cp.ServiceRequest,
	)
	res := Replay(m, LTEDeregistered, seq)
	if got := sojourns(res, LTESrvReqS, cp.S1ConnRelease); len(got) != 2 || got[0] != 10 || got[1] != 5 {
		t.Fatalf("SRV_REQ_S on S1_CONN_REL: sojourns %v", got)
	}
	if got := sojourns(res, LTES1RelS1, cp.ServiceRequest); len(got) != 2 || got[0] != 30 || got[1] != 50 {
		t.Fatalf("S1_REL_S1 on SRV_REQ: sojourns %v", got)
	}
	// The first event (Attach) has no sojourn.
	if res.Transitions[0].HasSojourn {
		t.Fatal("first event has a sojourn")
	}
}

func TestTopSojourns(t *testing.T) {
	seq := evs(
		0.0, cp.Attach, // enter CONNECTED at t=0
		5.0, cp.Handover, // still CONNECTED
		30.0, cp.S1ConnRelease, // enter IDLE at t=30: CONNECTED lasted 30
		90.0, cp.ServiceRequest, // enter CONNECTED at t=90: IDLE lasted 60
		100.0, cp.S1ConnRelease, // CONNECTED lasted 10
	)
	top := MacroSojourns(seq, cp.StateDeregistered)
	conn := top[cp.StateConnected]
	idle := top[cp.StateIdle]
	if len(conn) != 2 || conn[0] != 30 || conn[1] != 10 {
		t.Fatalf("CONNECTED sojourns = %v", conn)
	}
	if len(idle) != 1 || idle[0] != 60 {
		t.Fatalf("IDLE sojourns = %v", idle)
	}
	// Incomplete final IDLE visit (never left) must not be counted.
	if len(top[cp.StateDeregistered]) != 0 {
		t.Fatalf("DEREGISTERED sojourns = %v", top[cp.StateDeregistered])
	}
}

func TestTopSojournsNoDoubleCountWithinMacro(t *testing.T) {
	// Sub-state churn inside CONNECTED must not split the macro sojourn.
	seq := evs(
		0.0, cp.Attach,
		1.0, cp.Handover,
		2.0, cp.Handover,
		3.0, cp.TrackingAreaUpdate,
		50.0, cp.S1ConnRelease,
	)
	top := MacroSojourns(seq, cp.StateDeregistered)
	conn := top[cp.StateConnected]
	if len(conn) != 1 || conn[0] != 50 {
		t.Fatalf("CONNECTED sojourns = %v, want [50]", conn)
	}
}

func TestCountMacroEvents(t *testing.T) {
	m := LTE2Level()
	seq := evs(
		0.0, cp.Attach,
		1.0, cp.Handover, // HO in CONNECTED
		2.0, cp.TrackingAreaUpdate, // TAU in CONNECTED
		3.0, cp.S1ConnRelease,
		10.0, cp.TrackingAreaUpdate, // TAU in IDLE
		11.0, cp.S1ConnRelease, // the TAU's release, in IDLE
		20.0, cp.ServiceRequest,
		25.0, cp.Detach,
	)
	if res := Replay(m, LTEDeregistered, seq); res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	counts := MacroBreakdown(seq, cp.StateDeregistered)
	if counts[cp.Handover][cp.StateConnected] != 1 || counts[cp.Handover][cp.StateIdle] != 0 {
		t.Fatalf("HO counts = %v", counts[cp.Handover])
	}
	if counts[cp.TrackingAreaUpdate][cp.StateConnected] != 1 ||
		counts[cp.TrackingAreaUpdate][cp.StateIdle] != 1 {
		t.Fatalf("TAU counts = %v", counts[cp.TrackingAreaUpdate])
	}
	if counts[cp.S1ConnRelease][cp.StateIdle] != 2 {
		t.Fatalf("S1_CONN_REL counts = %v", counts[cp.S1ConnRelease])
	}
	if counts[cp.ServiceRequest][cp.StateConnected] != 1 {
		t.Fatalf("SRV_REQ counts = %v", counts[cp.ServiceRequest])
	}
}

func TestReplaySojournSecondsPrecision(t *testing.T) {
	m := EMMECM()
	seq := []trace.Event{
		{T: 0, UE: 1, Type: cp.Attach},
		{T: 1, UE: 1, Type: cp.S1ConnRelease}, // 1 ms sojourn
	}
	res := Replay(m, EEDeregistered, seq)
	if got := sojourns(res, EEConnected, cp.S1ConnRelease); len(got) != 1 || math.Abs(got[0]-0.001) > 1e-12 {
		t.Fatalf("sojourn = %v, want [0.001]", got)
	}
}

// sojourns returns, in seconds, the sojourns a replay observed before
// leaving from on event e.
func sojourns(res ReplayResult, from State, e cp.EventType) []float64 {
	var out []float64
	for _, tr := range res.Transitions {
		if tr.HasSojourn && tr.From == from && tr.Event == e {
			out = append(out, tr.Sojourn.Seconds())
		}
	}
	return out
}
