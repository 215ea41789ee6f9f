package sm

import (
	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// Walk is one UE's two-level walk through a machine: the sojourn
// extraction of the paper's §5 model. Both levels advance together, the
// top one on Category-1 events (MacroAfter) and the bottom one on the
// machine's edges inside the current macro state, and every event's
// effect comes back from Step as a Move. Model fitting and evaluation
// fold the same moves, so a fitted quantity and the quantity that judges
// it are one extraction.
//
// The initial macro state is decided by the first Category-1 event
// (InferMacroInitial), so Push holds the Category-2 prefix before it and
// hands the whole prefix back at that event — the same as inferring the
// state from the UE's whole sequence.
//
// The exported fields are the walk's whole state, there for checkpoint
// codecs to save and restore; nothing else should write them.
type Walk struct {
	m   *Machine
	one [1]trace.Event // Push's view of a decided walk's event

	Decided bool
	Buf     []trace.Event // the undecided prefix

	Macro            cp.UEState
	Bottom           State
	MacroAt, BotAt   cp.Millis // entry times, known when MacroHas, BotHas
	MacroHas, BotHas bool

	// Per event type: the time and (day, hour) cell of its last event.
	LastOfType     [cp.NumEventTypes]cp.Millis
	LastCellOfType [cp.NumEventTypes]int
	SeenType       [cp.NumEventTypes]bool
	LastCell       int // the cell of the last event
}

// NewWalk returns the walk of a UE with no events yet.
func NewWalk(m *Machine) Walk { return Walk{m: m, LastCell: -1} }

// Level names the machine level whose state an event left.
type Level uint8

const (
	// Stay: the event left no state.
	Stay Level = iota
	// ExitTop: the event changed the macro state.
	ExitTop
	// ExitBottom: the event took a sub-machine edge inside the macro state.
	ExitBottom
)

// Move is what one event did to a Walk.
type Move struct {
	Exit Level
	// Top and Bottom are the states before the event, entered at TopAt
	// and BotAt when TopHas and BotHas (an entry before the UE's first
	// event is unknown). On ExitTop the bottom sojourn in Bottom is cut
	// short by the top exit: right-censored at the event.
	Top            cp.UEState
	Bottom         State
	TopAt, BotAt   cp.Millis
	TopHas, BotHas bool
	// Gap is the time since the previous event of the same type, when
	// HasGap: that event fell in the same (day, hour) cell.
	Gap    cp.Millis
	HasGap bool
	// NewCell marks the UE's first event of a (day, hour) cell.
	NewCell bool
	// Macro and State are the states after the event.
	Macro cp.UEState
	State State
	// Violation marks a Category-2 event the sub-machine has no edge
	// for. A machine without sub-structure (EMM-ECM) has none: it
	// models Category-2 events as free processes.
	Violation bool
}

// Push feeds the UE's next event, in time order, and returns the events
// ready for Step: none while the initial macro state is undecided, the
// buffered prefix at the event that decides it, and otherwise ev itself,
// in a view the next Push overwrites. ok is false, and the walk
// unchanged, for an event type outside cp.EventTypes.
func (w *Walk) Push(ev trace.Event) (ready []trace.Event, ok bool) {
	if !ev.Type.Valid() {
		return nil, false
	}
	if w.Decided {
		w.one[0] = ev
		return w.one[:], true
	}
	w.Buf = append(w.Buf, ev)
	if !Category1(ev.Type) {
		return nil, true
	}
	return w.decide(), true
}

// Finish decides a walk that never saw a Category-1 event and returns
// its prefix for Step; a decided walk returns nil. Call it once, after
// the last Push.
func (w *Walk) Finish() []trace.Event {
	if w.Decided {
		return nil
	}
	return w.decide()
}

func (w *Walk) decide() []trace.Event {
	w.Decided = true
	w.Macro = InferMacroInitial(w.Buf)
	w.Bottom = w.m.SubEntry(w.Macro)
	buf := w.Buf
	w.Buf = nil
	return buf
}

// Step advances the walk by one event that Push or Finish made ready.
//
//cplint:hotpath one call per event of every fit and eval pass; the move is returned by value
func (w *Walk) Step(ev trace.Event) Move {
	t, e := ev.T, ev.Type
	mv := Move{
		Top: w.Macro, Bottom: w.Bottom,
		TopAt: w.MacroAt, BotAt: w.BotAt,
		TopHas: w.MacroHas, BotHas: w.BotHas,
	}
	cell := t.HourIndex()
	mv.NewCell = cell != w.LastCell
	w.LastCell = cell
	// The paper cuts the trace into non-overlapping 1-hour intervals, so
	// a gap never spans a cell boundary.
	if w.SeenType[e] && w.LastCellOfType[e] == cell {
		mv.Gap, mv.HasGap = t-w.LastOfType[e], true
	}
	w.LastOfType[e], w.LastCellOfType[e], w.SeenType[e] = t, cell, true

	cat1 := Category1(e)
	if cat1 {
		if next := MacroAfter(e); next != w.Macro {
			mv.Exit = ExitTop
			w.Macro, w.Bottom = next, w.m.SubEntry(next)
			w.MacroAt, w.BotAt, w.MacroHas, w.BotHas = t, t, true, true
		}
	}
	// A Category-1 event that leaves the macro state as it is can still
	// be a bottom edge: the S1_CONN_REL that releases an IDLE TAU.
	if mv.Exit == Stay {
		if to, ok := w.m.Next(w.Bottom, e); ok && w.m.Top(to) == w.Macro {
			mv.Exit = ExitBottom
			w.Bottom, w.BotAt, w.BotHas = to, t, true
		} else {
			mv.Violation = !cat1 && w.m.sub
		}
	}
	mv.Macro, mv.State = w.Macro, w.Bottom
	return mv
}
