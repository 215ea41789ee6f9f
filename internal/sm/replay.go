package sm

import (
	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// Transition records one step of a replay: the UE left From on Event at
// time At and entered To, having stayed in From for Sojourn (valid only
// when HasSojourn is true — the entry time of the very first state in a
// trace slice is unknown).
type Transition struct {
	From       State
	Event      cp.EventType
	To         State
	At         cp.Millis
	Sojourn    cp.Millis
	HasSojourn bool
	// Forced marks transitions that did not follow a machine edge and
	// were recovered via the canonical post-state of the event.
	Forced bool
}

// ReplayResult is the outcome of replaying one UE's event sequence.
type ReplayResult struct {
	Transitions []Transition
	// Violations counts events with no edge from the then-current state.
	Violations int
	// Final is the machine state after the last event.
	Final State
}

// Replay walks a single UE's time-ordered events through machine m
// starting from the given state. Events that do not correspond to an
// outgoing edge are counted as violations and recovered by jumping to the
// event's canonical post-state, so one bad event cannot desynchronize the
// rest of the replay.
func Replay(m *Machine, initial State, evs []trace.Event) ReplayResult {
	res := ReplayResult{Final: initial}
	cur := initial
	var enteredAt cp.Millis
	hasEntry := false
	for _, ev := range evs {
		next, ok := m.Next(cur, ev.Type)
		tr := Transition{
			From:  cur,
			Event: ev.Type,
			To:    next,
			At:    ev.T,
		}
		if !ok {
			res.Violations++
			tr.Forced = true
			tr.To = m.Forced(ev.Type)
		}
		if hasEntry {
			tr.Sojourn = ev.T - enteredAt
			tr.HasSojourn = true
		}
		res.Transitions = append(res.Transitions, tr)
		cur = tr.To
		enteredAt = ev.T
		hasEntry = true
	}
	res.Final = cur
	return res
}

// InferInitial guesses the state a UE occupied just before its first
// observed event: the canonical predecessor of that event type. A UE with
// no events is assumed DEREGISTERED only if the machine says so; callers
// that know better (e.g. hour slices of a longer trace) should carry the
// final state of the previous slice instead.
func InferInitial(m *Machine, evs []trace.Event) State {
	if len(evs) == 0 {
		return m.Initial
	}
	first := evs[0].Type
	// Find a state that has an outgoing edge on the first event; prefer
	// the canonical predecessors so replay starts violation-free.
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
