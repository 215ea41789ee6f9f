package trace

import (
	"fmt"

	"cptraffic/internal/cp"
)

// EventSource is the streaming unit of exchange between pipeline stages:
// a device registry plus a re-iterable, time-ordered stream of events.
// It is the bounded-memory generalization of *Trace — a stage that
// consumes an EventSource instead of a *Trace never needs the whole
// event sequence in memory, only the registry (O(UEs)) and whatever
// state it accumulates itself.
//
// Contract:
//
//   - Devices delivers every (UE, device type) registration exactly once,
//     in ascending UE order, before any consumer looks at events.
//   - Scan delivers events in canonical order — non-decreasing under
//     Event.Before, i.e. by time with (UE, Type) tie-breaks, the same
//     total order Trace.Sort establishes and k-way merges of per-UE
//     streams produce.
//   - Both methods may be called repeatedly; every call starts a fresh
//     iteration over the same data (sources backed by a seeded generator
//     re-derive it deterministically).
//
// *Trace implements EventSource (the exact in-memory reference);
// FileSource streams a trace file incrementally; the world simulator and
// the traffic generator provide generator-backed sources that never
// materialize the population's events.
type EventSource interface {
	// Devices calls fn for every registered UE in ascending UE order,
	// stopping at the first error, which it returns.
	Devices(fn func(cp.UEID, cp.DeviceType) error) error
	// Scan calls fn for every event in canonical order, stopping at the
	// first error, which it returns.
	Scan(fn func(Event) error) error
}

// EventSink consumes a stream: every device registration first (ascending
// UE order), then events in canonical order. *Trace implements EventSink
// (materializing), StreamWriter and TextWriter write incrementally to a
// file; writers additionally need Close to flush.
type EventSink interface {
	SetDevice(cp.UEID, cp.DeviceType) error
	Write(Event) error
}

// Write appends an event to the trace, erroring (instead of panicking
// like Append) when the UE is unregistered. It is the EventSink
// counterpart of Append.
func (tr *Trace) Write(e Event) error {
	if _, ok := tr.Device[e.UE]; !ok {
		return fmt.Errorf("trace: event for unknown UE %d (register it first)", e.UE)
	}
	tr.Events = append(tr.Events, e)
	return nil
}

// Devices implements EventSource: registrations in ascending UE order.
func (tr *Trace) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	for _, ue := range tr.UEs() {
		if err := fn(ue, tr.Device[ue]); err != nil {
			return err
		}
	}
	return nil
}

// Scan implements EventSource: events in canonical order. A trace that is
// already sorted (the pipeline invariant) is iterated in place; an
// unsorted one pays one O(n) index sort per call without mutating the
// trace.
func (tr *Trace) Scan(fn func(Event) error) error {
	if tr.Sorted() {
		for _, e := range tr.Events {
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	}
	sorted := append([]Event(nil), tr.Events...)
	tmp := &Trace{Events: sorted}
	tmp.Sort()
	for _, e := range sorted {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Copy streams src into dst: registrations first, then events. It is the
// universal pipe between pipeline stages; with a FileSource and a
// StreamWriter both ends run in O(UEs) memory. Callers owning a writer
// sink must still Close it afterwards.
func Copy(dst EventSink, src EventSource) error {
	if err := src.Devices(dst.SetDevice); err != nil {
		return err
	}
	return src.Scan(dst.Write)
}

// Collect materializes a source into an in-memory trace — the bridge back
// from the streaming world for consumers that need random access.
func Collect(src EventSource) (*Trace, error) {
	tr := New()
	if err := Copy(tr, src); err != nil {
		return nil, err
	}
	return tr, nil
}
