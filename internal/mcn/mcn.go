// Package mcn implements a small mobile-core-network control-plane
// simulator: an MME (4G) or AMF (5G) that consumes a control-plane trace
// event by event, tracks every UE's protocol state, tallies transaction
// counts and signaling load, and flags protocol violations.
//
// It is the "driven system" for the use cases of paper §3.1 — evaluating
// core designs and monitoring schemes under realistic control workload —
// and doubles as an independent conformance checker for generated traces.
package mcn

import (
	"fmt"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// Stats aggregates what the core observed while processing a trace.
type Stats struct {
	// Transactions counts processed events by type.
	Transactions [cp.NumEventTypes]int
	// Violations counts events that were illegal in the UE's state.
	Violations int
	// Registered and Connected are the current population gauges.
	Registered int
	Connected  int
	// PeakConnected is the high-water mark of simultaneously connected
	// UEs.
	PeakConnected int
	// Processed is the total number of events consumed.
	Processed int
}

// MME is the control-plane core simulator. The zero value is not usable;
// call New.
type MME struct {
	machine *sm.Machine
	state   map[cp.UEID]sm.State
	stats   Stats
	// Strict makes Process return an error on protocol violations
	// instead of recovering via the event's canonical post-state.
	Strict bool
}

// New returns an MME enforcing the given state machine (use
// sm.LTE2Level() for 4G/5G NSA, sm.FiveGSA() for 5G SA).
func New(machine *sm.Machine) *MME {
	return &MME{
		machine: machine,
		state:   make(map[cp.UEID]sm.State),
	}
}

// Process consumes one control event. Unknown UEs are admitted in the
// machine's initial (deregistered) state, except that the state of a UE
// first seen mid-stream is inferred from its first event so replays of
// trace slices do not storm the violation counter.
func (m *MME) Process(e trace.Event) error {
	cur, ok := m.state[e.UE]
	if !ok {
		cur = sm.InferInitial(m.machine, []trace.Event{{T: e.T, UE: e.UE, Type: e.Type}})
		// Admit the UE in its inferred state so the population gauges
		// stay balanced when it later releases or detaches.
		if m.machine.Top(cur).Registered() {
			m.stats.Registered++
		}
		if m.machine.Top(cur) == cp.StateConnected {
			m.stats.Connected++
			if m.stats.Connected > m.stats.PeakConnected {
				m.stats.PeakConnected = m.stats.Connected
			}
		}
	}
	wasRegistered := m.machine.Top(cur).Registered()
	wasConnected := m.machine.Top(cur) == cp.StateConnected

	next, legal := m.machine.Next(cur, e.Type)
	if !legal {
		m.stats.Violations++
		if m.Strict {
			return fmt.Errorf("mcn: UE %d: %s illegal in state %s",
				e.UE, e.Type, m.machine.StateName(cur))
		}
		next = m.machine.Forced(e.Type)
	}
	m.state[e.UE] = next
	m.stats.Processed++
	if e.Type.Valid() {
		m.stats.Transactions[e.Type]++
	}

	isRegistered := m.machine.Top(next).Registered()
	isConnected := m.machine.Top(next) == cp.StateConnected
	if isRegistered && !wasRegistered {
		m.stats.Registered++
	}
	if !isRegistered && wasRegistered {
		m.stats.Registered--
	}
	if isConnected && !wasConnected {
		m.stats.Connected++
		if m.stats.Connected > m.stats.PeakConnected {
			m.stats.PeakConnected = m.stats.Connected
		}
	}
	if !isConnected && wasConnected {
		m.stats.Connected--
	}
	return nil
}

// ProcessTrace consumes a whole (sorted) trace and returns the final
// stats. In Strict mode it stops at the first violation.
func (m *MME) ProcessTrace(tr *trace.Trace) (Stats, error) {
	for _, e := range tr.Events {
		if err := m.Process(e); err != nil {
			return m.stats, err
		}
	}
	return m.stats, nil
}

// Stats returns a snapshot of the current counters.
func (m *MME) Stats() Stats { return m.stats }

// State returns the tracked state of a UE and whether it has been seen.
func (m *MME) State(ue cp.UEID) (sm.State, bool) {
	s, ok := m.state[ue]
	return s, ok
}

// LoadSeries bins a trace's events into fixed windows and returns the
// transaction count per window — the signaling load profile a core
// design or a monitoring scheme would see.
func LoadSeries(tr *trace.Trace, bin cp.Millis) []int {
	if bin <= 0 || tr.Len() == 0 {
		return nil
	}
	lo, hi := tr.Span()
	n := int((hi - lo + bin - 1) / bin)
	out := make([]int, n)
	for _, e := range tr.Events {
		out[(e.T-lo)/bin]++
	}
	return out
}
