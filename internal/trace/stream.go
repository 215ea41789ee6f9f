package trace

import (
	"fmt"
	"slices"

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
//   - ScanBatches delivers events in canonical order — non-decreasing
//     under Event.Before, i.e. by time with (UE, Type) tie-breaks, the
//     same total order Trace.Sort establishes — one Batch at a time.
//     Batch boundaries carry no meaning (the byte-identity tests pin
//     this), and the *Batch passed to fn is reused between calls: fn must
//     consume or copy it before returning.
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
	// ScanBatches calls fn for successive batches of events in canonical
	// order, stopping at the first error, which it returns.
	ScanBatches(fn func(*Batch) error) error
}

// EventSink consumes a stream: every device registration first (ascending
// UE order), then events in canonical order. *Trace implements EventSink
// (materializing), StreamWriter and TextWriter write incrementally to a
// file; writers additionally need Close to flush. (Write stays beside
// BatchSink.WriteBatch: bench/gen.go's encoder embeds both interfaces.)
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

// ScanBatches implements EventSource: events in canonical order,
// DefaultBatchSize at a time. A trace that is already sorted (the pipeline
// invariant) is sliced in place; an unsorted one pays one sort of a copy
// per call without mutating the trace.
func (tr *Trace) ScanBatches(fn func(*Batch) error) error {
	evs := tr.Events
	if !tr.Sorted() {
		tmp := &Trace{Events: slices.Clone(evs)}
		tmp.Sort()
		evs = tmp.Events
	}
	b := NewBatch(DefaultBatchSize)
	for len(evs) > 0 {
		n := min(len(evs), b.Cap())
		b.Reset()
		for _, e := range evs[:n] {
			b.Append(e)
		}
		if err := fn(b); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// Collect materializes a source into an in-memory trace — the bridge back
// from the streaming world for consumers that need random access
// (bench/fit.go's reference fit among them).
func Collect(src EventSource) (*Trace, error) {
	tr := New()
	if err := CopyBatches(tr, src); err != nil {
		return nil, err
	}
	return tr, nil
}
