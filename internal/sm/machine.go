// Package sm defines the UE protocol state machines of the paper and the
// machinery to replay control-plane traces through them.
//
// Three machines are provided:
//
//   - EMMECM: the merged EMM–ECM machine (3 states) used by the Base and
//     V1 comparison methods. It captures only the Category-1 events
//     (ATCH, DTCH, SRV_REQ, S1_CONN_REL).
//   - LTE2Level: the paper's two-level hierarchical machine (Fig. 5),
//     flattened into 7 fine-grained states. Category-2 events (HO, TAU)
//     are edges of the embedded sub-machines.
//   - FiveGSA: the adjusted machine for 5G standalone (Fig. 6), obtained
//     by removing TAU and its states.
//
// A machine is deterministic: a (state, event) pair has at most one
// successor, so replaying a trace through a machine is unambiguous.
package sm

import (
	"fmt"

	"cptraffic/internal/cp"
)

// State is a fine-grained machine state index, local to one Machine.
type State uint8

// StateInfo describes one fine-grained state.
type StateInfo struct {
	// Name is the paper's name for the state, e.g. "SRV_REQ_S".
	Name string
	// Top is the merged EMM-ECM macro state this fine state belongs to.
	Top cp.UEState
}

// Edge is a labeled transition: on Event, move to To.
type Edge struct {
	Event cp.EventType
	To    State
}

// Machine is a deterministic finite state machine over control events.
type Machine struct {
	// Name identifies the machine ("EMM-ECM", "LTE-2LEVEL", "5G-SA").
	Name string
	// States lists the fine-grained states; State values index it.
	States []StateInfo
	// Edges[s] lists the outgoing edges of state s in canonical order.
	Edges [][]Edge
	// Initial is the canonical initial state (DEREGISTERED).
	Initial State
	// forced maps each event type to the canonical state a UE occupies
	// right after that event, used to resynchronize after a protocol
	// violation in an observed trace.
	forced [cp.NumEventTypes]State
	// subEntry maps each macro state to the fine state entered when the
	// top level switches into that macro state (the sub-machine's entry
	// point, e.g. CONNECTED enters SRV_REQ_S).
	subEntry [cp.NumUEStates]State
}

// SubEntry returns the fine state entered when the top level switches
// into macro state top.
func (m *Machine) SubEntry(top cp.UEState) State { return m.subEntry[top] }

// NumStates returns the number of fine-grained states.
func (m *Machine) NumStates() int { return len(m.States) }

// StateName returns the name of s ("?" if out of range).
func (m *Machine) StateName(s State) string {
	if int(s) < len(m.States) {
		return m.States[s].Name
	}
	return "?"
}

// Top returns the merged macro state of s.
func (m *Machine) Top(s State) cp.UEState { return m.States[s].Top }

// Next returns the successor of s on event e, if the edge exists.
func (m *Machine) Next(s State, e cp.EventType) (State, bool) {
	for _, edge := range m.Edges[s] {
		if edge.Event == e {
			return edge.To, true
		}
	}
	return s, false
}

// Forced returns the canonical post-state of event e, used to recover
// when an observed trace takes an edge the machine does not have.
func (m *Machine) Forced(e cp.EventType) State { return m.forced[e] }

// validate panics if the machine definition is internally inconsistent;
// it runs once at package init for the built-in machines.
func (m *Machine) validate() {
	if len(m.Edges) != len(m.States) {
		panic(fmt.Sprintf("sm: %s: %d edge lists for %d states", m.Name, len(m.Edges), len(m.States)))
	}
	for s, edges := range m.Edges {
		seen := map[cp.EventType]bool{}
		for _, e := range edges {
			if int(e.To) >= len(m.States) {
				panic(fmt.Sprintf("sm: %s: edge from %s to out-of-range state %d",
					m.Name, m.States[s].Name, e.To))
			}
			if seen[e.Event] {
				panic(fmt.Sprintf("sm: %s: state %s has duplicate edge on %s",
					m.Name, m.States[s].Name, e.Event))
			}
			seen[e.Event] = true
		}
	}
}

// Fine-grained states of the LTE two-level machine (paper Fig. 5). The
// sub-machine states are named exactly as in the paper; the DEREGISTERED
// top-level state has no sub-structure.
const (
	LTEDeregistered State = iota // EMM_DEREGISTERED
	LTESrvReqS                   // SRV_REQ_S   (in CONNECTED)
	LTEHoS                       // HO_S        (in CONNECTED)
	LTETauSConn                  // TAU_S_CONN  (in CONNECTED)
	LTES1RelS1                   // S1_REL_S_1  (in IDLE)
	LTETauSIdle                  // TAU_S_IDLE  (in IDLE)
	LTES1RelS2                   // S1_REL_S_2  (in IDLE)

	numLTEStates = iota
)

var lte2Level = &Machine{
	Name: "LTE-2LEVEL",
	States: []StateInfo{
		LTEDeregistered: {"DEREGISTERED", cp.StateDeregistered},
		LTESrvReqS:      {"SRV_REQ_S", cp.StateConnected},
		LTEHoS:          {"HO_S", cp.StateConnected},
		LTETauSConn:     {"TAU_S_CONN", cp.StateConnected},
		LTES1RelS1:      {"S1_REL_S_1", cp.StateIdle},
		LTETauSIdle:     {"TAU_S_IDLE", cp.StateIdle},
		LTES1RelS2:      {"S1_REL_S_2", cp.StateIdle},
	},
	Edges: [][]Edge{
		// Powered-off UEs can only attach; attach enters CONNECTED
		// (the UE always enters CONNECTED when it registers, §5.1).
		LTEDeregistered: {
			{cp.Attach, LTESrvReqS},
		},
		// CONNECTED sub-machine: HO and TAU move among the sub-states;
		// S1_CONN_REL can leave from any CONNECTED sub-state; DTCH
		// deregisters.
		LTESrvReqS: {
			{cp.Handover, LTEHoS},
			{cp.TrackingAreaUpdate, LTETauSConn},
			{cp.S1ConnRelease, LTES1RelS1},
			{cp.Detach, LTEDeregistered},
		},
		LTEHoS: {
			{cp.Handover, LTEHoS},
			{cp.TrackingAreaUpdate, LTETauSConn},
			{cp.S1ConnRelease, LTES1RelS1},
			{cp.Detach, LTEDeregistered},
		},
		LTETauSConn: {
			{cp.TrackingAreaUpdate, LTETauSConn},
			{cp.Handover, LTEHoS},
			{cp.S1ConnRelease, LTES1RelS1},
			{cp.Detach, LTEDeregistered},
		},
		// IDLE sub-machine: SRV_REQ may only leave from S1_REL_S_1 and
		// S1_REL_S_2 (the starred arrow in Fig. 5); after a TAU in IDLE
		// an S1_CONN_REL always follows to release the TAU's signaling
		// connection.
		LTES1RelS1: {
			{cp.TrackingAreaUpdate, LTETauSIdle},
			{cp.ServiceRequest, LTESrvReqS},
			{cp.Detach, LTEDeregistered},
		},
		LTETauSIdle: {
			{cp.S1ConnRelease, LTES1RelS2},
			{cp.Detach, LTEDeregistered},
		},
		LTES1RelS2: {
			{cp.TrackingAreaUpdate, LTETauSIdle},
			{cp.ServiceRequest, LTESrvReqS},
			{cp.Detach, LTEDeregistered},
		},
	},
	Initial: LTEDeregistered,
	forced: [cp.NumEventTypes]State{
		cp.Attach:             LTESrvReqS,
		cp.Detach:             LTEDeregistered,
		cp.ServiceRequest:     LTESrvReqS,
		cp.S1ConnRelease:      LTES1RelS1,
		cp.Handover:           LTEHoS,
		cp.TrackingAreaUpdate: LTETauSConn,
	},
	subEntry: [cp.NumUEStates]State{
		cp.StateDeregistered: LTEDeregistered,
		cp.StateConnected:    LTESrvReqS,
		cp.StateIdle:         LTES1RelS1,
	},
}

// LTE2Level returns the paper's two-level hierarchical LTE machine.
func LTE2Level() *Machine { return lte2Level }

// States of the merged EMM-ECM machine used by Base and V1.
const (
	EEDeregistered State = iota // EMM_DEREGISTERED
	EEConnected                 // ECM_CONNECTED
	EEIdle                      // ECM_IDLE
)

var emmEcm = &Machine{
	Name: "EMM-ECM",
	States: []StateInfo{
		EEDeregistered: {"DEREGISTERED", cp.StateDeregistered},
		EEConnected:    {"CONNECTED", cp.StateConnected},
		EEIdle:         {"IDLE", cp.StateIdle},
	},
	Edges: [][]Edge{
		EEDeregistered: {
			{cp.Attach, EEConnected},
		},
		EEConnected: {
			{cp.S1ConnRelease, EEIdle},
			{cp.Detach, EEDeregistered},
		},
		EEIdle: {
			{cp.ServiceRequest, EEConnected},
			{cp.Detach, EEDeregistered},
		},
	},
	Initial: EEDeregistered,
	forced: [cp.NumEventTypes]State{
		cp.Attach:             EEConnected,
		cp.Detach:             EEDeregistered,
		cp.ServiceRequest:     EEConnected,
		cp.S1ConnRelease:      EEIdle,
		cp.Handover:           EEConnected,
		cp.TrackingAreaUpdate: EEConnected,
	},
	subEntry: [cp.NumUEStates]State{
		cp.StateDeregistered: EEDeregistered,
		cp.StateConnected:    EEConnected,
		cp.StateIdle:         EEIdle,
	},
}

// EMMECM returns the merged EMM-ECM machine (Fig. 1a + 1b combined).
func EMMECM() *Machine { return emmEcm }

// Fine-grained states of the adjusted 5G SA machine (paper Fig. 6). The
// LTE event-type constants double as the 5G ones through the Table 2
// mapping (ATCH=REGISTER, DTCH=DEREGISTER, S1_CONN_REL=AN_REL); TAU has
// no 5G SA counterpart so its states disappear.
const (
	SADeregistered State = iota // RM-DEREGISTERED
	SASrvReqS                   // SRV_REQ_S (in CM-CONNECTED)
	SAHoS                       // HO_S      (in CM-CONNECTED)
	SAIdle                      // CM-IDLE

	numSAStates = iota
)

// NumSAStates is the number of fine states in the 5G SA machine.
const NumSAStates = int(numSAStates)

var fiveGSA = &Machine{
	Name: "5G-SA",
	States: []StateInfo{
		SADeregistered: {"RM-DEREGISTERED", cp.StateDeregistered},
		SASrvReqS:      {"SRV_REQ_S", cp.StateConnected},
		SAHoS:          {"HO_S", cp.StateConnected},
		SAIdle:         {"CM-IDLE", cp.StateIdle},
	},
	Edges: [][]Edge{
		SADeregistered: {
			{cp.Attach, SASrvReqS},
		},
		SASrvReqS: {
			{cp.Handover, SAHoS},
			{cp.S1ConnRelease, SAIdle},
			{cp.Detach, SADeregistered},
		},
		SAHoS: {
			{cp.Handover, SAHoS},
			{cp.S1ConnRelease, SAIdle},
			{cp.Detach, SADeregistered},
		},
		SAIdle: {
			{cp.ServiceRequest, SASrvReqS},
			{cp.Detach, SADeregistered},
		},
	},
	Initial: SADeregistered,
	forced: [cp.NumEventTypes]State{
		cp.Attach:             SASrvReqS,
		cp.Detach:             SADeregistered,
		cp.ServiceRequest:     SASrvReqS,
		cp.S1ConnRelease:      SAIdle,
		cp.Handover:           SAHoS,
		cp.TrackingAreaUpdate: SASrvReqS, // unreachable: TAU does not exist in 5G SA
	},
	subEntry: [cp.NumUEStates]State{
		cp.StateDeregistered: SADeregistered,
		cp.StateConnected:    SASrvReqS,
		cp.StateIdle:         SAIdle,
	},
}

// FiveGSA returns the adjusted two-level machine for 5G standalone.
func FiveGSA() *Machine { return fiveGSA }

func init() {
	lte2Level.validate()
	emmEcm.validate()
	fiveGSA.validate()
}
