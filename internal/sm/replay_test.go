package sm

import (
	"math/rand/v2"
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
		0.0, cp.Attach,
		5.0, cp.Handover,
		8.0, cp.TrackingAreaUpdate,
		20.0, cp.S1ConnRelease,
		60.0, cp.TrackingAreaUpdate,
		61.0, cp.S1ConnRelease,
		300.0, cp.ServiceRequest,
		310.0, cp.Detach,
	)
	if res := Replay(m, LTEDeregistered, seq); res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	// The cursor walks Fig. 5's path and leaves each state it entered.
	path := []State{LTEDeregistered, LTESrvReqS, LTEHoS, LTETauSConn, LTES1RelS1, LTETauSIdle, LTES1RelS2, LTESrvReqS, LTEDeregistered}
	var c Cursor
	for i, ev := range seq {
		from, legal := c.Step(m, ev.Type)
		if !legal || from != path[i] || c.State != path[i+1] {
			t.Fatalf("event %d (%s): left %s for %s, legal %v; want %s for %s",
				i, ev.Type, m.StateName(from), m.StateName(c.State), legal, m.StateName(path[i]), m.StateName(path[i+1]))
		}
	}
}

func TestReplayViolationRecovery(t *testing.T) {
	m := LTE2Level()
	// HO while DEREGISTERED is a violation; the cursor must count it and
	// resynchronize to HO_S, after which the S1_CONN_REL is legal.
	seq := evs(0.0, cp.Handover, 1.0, cp.S1ConnRelease)
	if res := Replay(m, LTEDeregistered, seq); res.Violations != 1 {
		t.Fatalf("violations = %d", res.Violations)
	}
	c := Cursor{State: LTEDeregistered, Started: true}
	if from, legal := c.Step(m, cp.Handover); legal || from != LTEDeregistered || c.State != LTEHoS {
		t.Fatalf("forced step: left %s for %s, legal %v", m.StateName(from), m.StateName(c.State), legal)
	}
	if _, legal := c.Step(m, cp.S1ConnRelease); !legal || c.State != LTES1RelS1 {
		t.Fatalf("after recovery: %s, legal %v", m.StateName(c.State), legal)
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
		// first event, and a cursor that has not started infers it.
		res := Replay(m, got, evs(0.0, c.first))
		if res.Violations != 0 {
			t.Errorf("InferInitial(%s) still violates", c.first)
		}
		var cur Cursor
		if from, legal := cur.Step(m, c.first); !legal || from != c.want {
			t.Errorf("a new cursor on %s left %s, legal %v", c.first, m.StateName(from), legal)
		}
	}
	if InferInitial(m, nil) != m.Initial {
		t.Error("empty sequence should infer the machine's initial state")
	}
}

// TestReplayAllocs: the conformance check allocates nothing, however
// long the UE's sequence and however many of its events violate.
func TestReplayAllocs(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	seq := make([]trace.Event, 1000)
	for i := range seq {
		seq[i] = trace.Event{T: cp.Millis(i) * cp.Second, UE: 1, Type: cp.EventTypes[r.IntN(cp.NumEventTypes)]}
	}
	for _, m := range []*Machine{LTE2Level(), EMMECM(), FiveGSA()} {
		var res ReplayResult
		allocs := testing.AllocsPerRun(100, func() {
			res = Replay(m, InferInitial(m, seq), seq)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per replay of %d events, want 0", m.Name, allocs, len(seq))
		}
		if res.Violations == 0 {
			t.Fatalf("%s: a random sequence replayed without violations", m.Name)
		}
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
