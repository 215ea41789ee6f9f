package sm

import (
	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// Cursor is one UE's place in a machine for the conformance check: its
// fine state, and whether it has seen an event yet. The zero Cursor is a
// UE with no events.
type Cursor struct {
	State   State
	Started bool
}

// Step applies the conformance rule to the UE's next event e: a cursor
// that has not started enters the state inferInitial gives e; then it
// takes m's edge on e or, when the state has none, moves to e's canonical
// post-state m.Forced(e), so one bad event cannot desynchronize the rest
// of the UE. It returns the state it left and whether the edge was legal.
//
//cplint:hotpath one call per event of every conformance check
func (c *Cursor) Step(m *Machine, e cp.EventType) (from State, legal bool) {
	if !c.Started {
		c.State, c.Started = inferInitial(m, e), true
	}
	from = c.State
	if c.State, legal = m.Next(from, e); !legal {
		c.State = m.Forced(e)
	}
	return from, legal
}

// ReplayResult is the outcome of replaying one UE's event sequence.
type ReplayResult struct {
	// Violations counts events with no edge from the then-current state.
	Violations int
}

// Replay walks a single UE's time-ordered events through machine m
// starting from the given state, one Cursor step an event, and counts
// the events that took no edge.
func Replay(m *Machine, initial State, evs []trace.Event) ReplayResult {
	c := Cursor{State: initial, Started: true}
	var res ReplayResult
	for _, ev := range evs {
		if _, legal := c.Step(m, ev.Type); !legal {
			res.Violations++
		}
	}
	return res
}

// InferInitial guesses the state a UE occupied just before its first
// observed event (see inferInitial). A UE with no events is in the
// machine's initial state; callers that know better (e.g. hour slices of
// a longer trace) should carry the state of the previous slice instead.
func InferInitial(m *Machine, evs []trace.Event) State {
	if len(evs) == 0 {
		return m.Initial
	}
	return inferInitial(m, evs[0].Type)
}

// inferInitial is the canonical predecessor of a UE's first event type
// first: a state with an outgoing edge on it, so the check starts
// violation-free.
func inferInitial(m *Machine, first cp.EventType) State {
	switch first {
	case cp.Attach:
		return m.Initial
	case cp.Detach, cp.S1ConnRelease, cp.Handover:
		// These require CONNECTED; the forced post-state of SRV_REQ is
		// the canonical CONNECTED entry point.
		return m.Forced(cp.ServiceRequest)
	case cp.ServiceRequest:
		// Requires IDLE; the forced post-state of S1_CONN_REL is the
		// canonical IDLE entry point.
		return m.Forced(cp.S1ConnRelease)
	case cp.TrackingAreaUpdate:
		// TAU can occur in CONNECTED and IDLE; prefer CONNECTED, which
		// accounts for the majority of TAUs in the paper's trace.
		return m.Forced(cp.ServiceRequest)
	}
	return m.Initial
}
