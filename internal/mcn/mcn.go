// Package mcn implements a small mobile-core-network control-plane
// simulator: an MME (4G) or AMF (5G) that consumes a control-plane trace
// event by event, tracks every UE's protocol state, tallies transaction
// counts and signaling load, and counts protocol violations by the one
// conformance rule, sm.Cursor.
//
// It is the "driven system" for the use cases of paper §3.1 — evaluating
// core designs and monitoring schemes under realistic control workload.
package mcn

import (
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
	ues     map[cp.UEID]sm.Cursor
	stats   Stats
}

// New returns an MME enforcing the given state machine (use
// sm.LTE2Level() for 4G/5G NSA, sm.FiveGSA() for 5G SA).
func New(machine *sm.Machine) *MME {
	return &MME{
		machine: machine,
		ues:     make(map[cp.UEID]sm.Cursor),
	}
}

// Process consumes one control event, one sm.Cursor step of its UE: a
// UE first seen mid-stream is admitted in the state inferred from its
// first event, so replays of trace slices do not storm the violation
// counter, and an event the UE's state has no edge for is counted and
// recovered via the event's canonical post-state.
func (m *MME) Process(e trace.Event) {
	c := m.ues[e.UE]
	admit := !c.Started
	from, legal := c.Step(m.machine, e.Type)
	m.ues[e.UE] = c
	if !legal {
		m.stats.Violations++
	}
	m.stats.Processed++
	m.stats.Transactions[e.Type]++
	// A UE admitted in its inferred state counts toward the gauges
	// before it moves, so they stay balanced when it later releases or
	// detaches.
	if admit {
		m.gauge(cp.StateDeregistered, m.machine.Top(from))
	}
	m.gauge(m.machine.Top(from), m.machine.Top(c.State))
}

// gauge moves the population gauges for one UE going from macro state a
// to b.
func (m *MME) gauge(a, b cp.UEState) {
	if a.Registered() != b.Registered() {
		if b.Registered() {
			m.stats.Registered++
		} else {
			m.stats.Registered--
		}
	}
	if (a == cp.StateConnected) != (b == cp.StateConnected) {
		if b == cp.StateConnected {
			m.stats.Connected++
			m.stats.PeakConnected = max(m.stats.PeakConnected, m.stats.Connected)
		} else {
			m.stats.Connected--
		}
	}
}

// ProcessTrace consumes a whole (sorted) trace and returns the final
// stats.
func (m *MME) ProcessTrace(tr *trace.Trace) Stats {
	for _, e := range tr.Events {
		m.Process(e)
	}
	return m.stats
}

// Stats returns a snapshot of the current counters.
func (m *MME) Stats() Stats { return m.stats }

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
