// Package trace provides the control-plane trace data model: timestamped,
// UE-labeled control events, in-memory traces, per-UE views, hour slicing,
// and the ordering of per-UE event streams into one trace: packed-key
// assembly, whole or a time window at a time, and the k-way merge that is
// its oracle.
//
// A trace is the unit of exchange between every stage of the pipeline:
// the world simulator emits one, the model fitter consumes one, the
// traffic generator produces one, and the evaluator compares two.
package trace

import (
	"fmt"
	"sort"

	"cptraffic/internal/cp"
)

// Event is a single control-plane event: at time T, UE performed Type.
// Events are small fixed-size values by design (the paper notes control
// events have fixed, small sizes, so only timing and identity matter).
type Event struct {
	T    cp.Millis
	UE   cp.UEID
	Type cp.EventType
}

// String formats the event as "T=<ms> UE=<id> <TYPE>".
func (e Event) String() string {
	return fmt.Sprintf("T=%d UE=%d %s", e.T, e.UE, e.Type)
}

// Before reports whether e orders before f: primarily by time, with
// (UE, Type) as deterministic tie-breakers so sorts are stable across runs.
func (e Event) Before(f Event) bool {
	if e.T != f.T {
		return e.T < f.T
	}
	if e.UE != f.UE {
		return e.UE < f.UE
	}
	return e.Type < f.Type
}

// Trace is a sequence of control-plane events together with the device
// type of every UE appearing in it. Events need not be sorted unless a
// consumer requires it; Sorted reports the current ordering.
type Trace struct {
	Events []Event
	// Device maps each UE to its device type. Every UE referenced by
	// Events must be present.
	Device map[cp.UEID]cp.DeviceType
}

// New returns an empty trace with an initialized device map.
func New() *Trace {
	return &Trace{Device: make(map[cp.UEID]cp.DeviceType)}
}

// Append adds an event to the trace. The UE must already be registered via
// SetDevice; Append panics otherwise to catch mislabeled events early.
func (tr *Trace) Append(e Event) {
	if _, ok := tr.Device[e.UE]; !ok {
		panic(fmt.Sprintf("trace: event for unknown UE %d (call SetDevice first)", e.UE))
	}
	tr.Events = append(tr.Events, e)
}

// SetDevice records the device type of a UE. A UE's device type is
// immutable: re-registering with a different type is an error.
func (tr *Trace) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	if prev, ok := tr.Device[ue]; ok && prev != d {
		return fmt.Errorf("trace: UE %d already registered as %v, cannot change to %v", ue, prev, d)
	}
	tr.Device[ue] = d
	return nil
}

// Len returns the number of events.
func (tr *Trace) Len() int { return len(tr.Events) }

// NumUEs returns the number of distinct UEs registered in the trace.
func (tr *Trace) NumUEs() int { return len(tr.Device) }

// Sorted reports whether Events is in canonical order.
func (tr *Trace) Sorted() bool {
	evs := tr.Events
	for i := 1; i < len(evs); i++ {
		if evs[i].Before(evs[i-1]) {
			return false
		}
	}
	return true
}

// Sort puts Events into canonical (time, UE, type) order.
func (tr *Trace) Sort() {
	sort.Slice(tr.Events, func(i, j int) bool {
		return tr.Events[i].Before(tr.Events[j])
	})
}

// Span returns the half-open time interval [lo, hi) covering all events,
// where hi is one past the last event's timestamp. An empty trace returns
// (0, 0).
func (tr *Trace) Span() (lo, hi cp.Millis) {
	if len(tr.Events) == 0 {
		return 0, 0
	}
	lo, hi = tr.Events[0].T, tr.Events[0].T
	for _, e := range tr.Events {
		if e.T < lo {
			lo = e.T
		}
		if e.T > hi {
			hi = e.T
		}
	}
	return lo, hi + 1
}

// UEs returns the registered UE ids in ascending order.
func (tr *Trace) UEs() []cp.UEID {
	ids := make([]cp.UEID, 0, len(tr.Device))
	for ue := range tr.Device {
		ids = append(ids, ue)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// UEsOfType returns the UE ids of the given device type in ascending order.
func (tr *Trace) UEsOfType(d cp.DeviceType) []cp.UEID {
	var ids []cp.UEID
	for _, ue := range tr.UEs() {
		if tr.Device[ue] == d {
			ids = append(ids, ue)
		}
	}
	return ids
}

// PerUE splits the trace into per-UE event sequences, each sorted by time.
// UEs with no events map to nil slices only if they were registered via
// SetDevice; they still appear as keys so callers can see silent UEs.
func (tr *Trace) PerUE() map[cp.UEID][]Event {
	out := make(map[cp.UEID][]Event, len(tr.Device))
	for ue := range tr.Device {
		out[ue] = nil
	}
	for _, e := range tr.Events {
		out[e.UE] = append(out[e.UE], e)
	}
	// Each key's slice is sorted in place independently of every other
	// key, and the write is indexed by the iteration key.
	//cplint:ordered-ok per-key in-place sort; no cross-key state
	for ue, evs := range out {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Before(evs[j]) })
		out[ue] = evs
	}
	return out
}

// FilterDevice returns a new trace containing only events from UEs of the
// given device type (and only those UEs' device registrations).
func (tr *Trace) FilterDevice(d cp.DeviceType) *Trace {
	out := New()
	for ue, dt := range tr.Device {
		if dt == d {
			out.Device[ue] = dt
		}
	}
	for _, e := range tr.Events {
		if tr.Device[e.UE] == d {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Slice returns a new trace restricted to events with lo <= T < hi. All
// device registrations are retained so per-UE statistics can distinguish
// "silent this hour" from "absent".
func (tr *Trace) Slice(lo, hi cp.Millis) *Trace {
	out := New()
	for ue, dt := range tr.Device {
		out.Device[ue] = dt
	}
	for _, e := range tr.Events {
		if e.T >= lo && e.T < hi {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// CountByType tallies events by type.
func (tr *Trace) CountByType() [cp.NumEventTypes]int {
	var c [cp.NumEventTypes]int
	for _, e := range tr.Events {
		if e.Type.Valid() {
			c[e.Type]++
		}
	}
	return c
}

// Merge combines several traces into one. Device registrations must be
// consistent across inputs; conflicting registrations return an error.
// The result is sorted.
func Merge(traces ...*Trace) (*Trace, error) {
	out := New()
	for _, tr := range traces {
		// Ascending UE order so a registration conflict always blames
		// the same UE no matter how the map iterates.
		for _, ue := range tr.UEs() {
			if err := out.SetDevice(ue, tr.Device[ue]); err != nil {
				return nil, err
			}
		}
		out.Events = append(out.Events, tr.Events...)
	}
	out.Sort()
	return out, nil
}

// Validate checks internal consistency: every event references a
// registered UE and has a valid event type, and timestamps are
// non-negative. It returns the first problem found.
func (tr *Trace) Validate() error {
	for i, e := range tr.Events {
		if !e.Type.Valid() {
			return fmt.Errorf("trace: event %d has invalid type %d", i, e.Type)
		}
		if _, ok := tr.Device[e.UE]; !ok {
			return fmt.Errorf("trace: event %d references unregistered UE %d", i, e.UE)
		}
		if e.T < 0 {
			return fmt.Errorf("trace: event %d has negative timestamp %d", i, e.T)
		}
	}
	return nil
}
