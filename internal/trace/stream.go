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

// EventIterator yields one stream's events in time order, pull-style.
// Per-UE generators implement it, so MergeScan and MergeBatches can
// interleave populations without materializing anyone's future.
type EventIterator interface {
	Next() (Event, bool)
}

// SliceIterator replays an already-materialized, already-ordered event
// slice pull-style — the bridge that lets batch generators feed their
// per-UE buffers into the same MergeScan as the streaming paths. The
// zero value is an empty stream; callers bulk-allocate []SliceIterator
// and pass pointers.
type SliceIterator struct{ Events []Event }

// Next pops the next event, reporting false when the slice is drained.
func (s *SliceIterator) Next() (Event, bool) {
	if len(s.Events) == 0 {
		return Event{}, false
	}
	ev := s.Events[0]
	s.Events = s.Events[1:]
	return ev, true
}

// MergeScan k-way merges the iterators — each individually ordered under
// Event.Before — into one canonically ordered stream delivered to fn,
// holding only one pending event per iterator (O(k) memory). fn's first
// error aborts the merge and is returned.
//
// The merge is a loser tree rather than container/heap: advancing the
// winner costs exactly ⌈log₂ k⌉ comparisons and only index writes (a
// binary heap pays ~2 comparisons per level and swaps whole items), and
// nothing goes through an interface per sift step. Before is a total
// order on distinct events (time, UE, type), so the output sequence is
// uniquely determined by the comparator and any correct merge yields
// identical bytes; should two iterators ever carry the very same event,
// the lower iterator index wins, deterministically.
func MergeScan(fn func(Event) error, its []EventIterator) error {
	evs := make([]Event, 0, len(its))
	act := make([]EventIterator, 0, len(its))
	for _, it := range its {
		if ev, ok := it.Next(); ok {
			evs = append(evs, ev)
			act = append(act, it)
		}
	}
	k := len(act)
	if k == 0 {
		return nil
	}
	dead := make([]bool, k)
	// Complete-tree embedding: internal nodes 1..k-1, leaf i at node k+i;
	// tree[n] is the loser at node n and tree[0] the overall winner.
	tree := make([]int32, k)
	win := make([]int32, 2*k)
	for i := 0; i < k; i++ {
		win[k+i] = int32(i)
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if leafBeats(a, b, evs, dead) {
			win[n], tree[n] = a, b
		} else {
			win[n], tree[n] = b, a
		}
	}
	tree[0] = win[1]
	for alive := k; alive > 0; {
		w := tree[0]
		if err := fn(evs[w]); err != nil {
			return err
		}
		if ev, ok := act[w].Next(); ok {
			evs[w] = ev
		} else {
			dead[w] = true
			alive--
			if alive == 0 {
				break
			}
		}
		tree[0] = sift(w, k, tree, evs, dead)
	}
	return nil
}

// leafBeats reports whether leaf a's pending event orders before leaf
// b's; exhausted leaves always lose so the tree drains without
// shrinking, and ties break toward the lower iterator index.
//
//cplint:hotpath ⌈log₂k⌉ calls per merged event, inlined into the sift
func leafBeats(a, b int32, evs []Event, dead []bool) bool {
	if dead[a] || dead[b] {
		return !dead[a] && dead[b]
	}
	if evs[a].Before(evs[b]) {
		return true
	}
	if evs[b].Before(evs[a]) {
		return false
	}
	return a < b
}

// sift replays the path from leaf w to the root after the leaf's
// pending event changed: whoever loses parks at the node, the winner
// plays on. It returns the new overall winner.
//
//cplint:hotpath the loser-tree sift: runs once per merged event, index writes only
func sift(w int32, k int, tree []int32, evs []Event, dead []bool) int32 {
	for n := (int(w) + k) / 2; n > 0; n /= 2 {
		if leafBeats(tree[n], w, evs, dead) {
			w, tree[n] = tree[n], w
		}
	}
	return w
}
