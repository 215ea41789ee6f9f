package trace

import (
	"fmt"

	"cptraffic/internal/cp"
)

// DefaultBatchSize is the number of events a batched pipeline stage moves
// per hop. 256 events keep a batch's three columns (~3.3 KB) inside L1
// while making the per-batch call overhead noise (<0.5% of the per-event
// work it amortizes).
const DefaultBatchSize = 256

// Batch is a struct-of-arrays block of events: three parallel columns
// holding the i-th event's time, UE, and type at index i. It is the
// batched counterpart of Event — the unit of flow through the hot
// pipeline — sized so one batch amortizes the per-event interface hop of
// EventSource over ~256 events.
//
// The columns always have equal length. A Batch carries no device
// registry; registrations travel through the same Devices callback as the
// per-event path.
//
// Batches handed to ScanBatches/WriteBatch callbacks are reused: the
// columns are overwritten after the callback returns, so consumers must
// copy (CopyBatches, AppendTo, append(col[:0:0], col...)) anything they
// keep. cplint's retain analyzer enforces this contract; `-tags
// batchdebug` additionally poisons the columns on Reset at runtime.
//
//cplint:reused ScanBatches/WriteBatch overwrite the columns after every callback; retained views read corrupted events
type Batch struct {
	T    []cp.Millis
	UE   []cp.UEID
	Type []cp.EventType
}

// NewBatch returns an empty batch with the given capacity (DefaultBatchSize
// when n <= 0).
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = DefaultBatchSize
	}
	b := &Batch{}
	b.Grow(n)
	return b
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return len(b.T) }

// Cap returns the batch's column capacity.
func (b *Batch) Cap() int { return cap(b.T) }

// Reset empties the batch, keeping the column storage for reuse. Under
// `-tags batchdebug` it first scribbles poison sentinels over the full
// column capacity, so a consumer that retained a column view past its
// callback reads unmistakable garbage instead of silently stale or
// silently fresh events.
func (b *Batch) Reset() {
	poisonBatch(b)
	b.T = b.T[:0]
	b.UE = b.UE[:0]
	b.Type = b.Type[:0]
}

// Grow ensures the batch can hold at least n events without reallocating,
// preserving current contents.
//
//cplint:coldpath one-shot growth to the high-water capacity; steady-state batches hit the early return and reuse the grown columns
func (b *Batch) Grow(n int) {
	if cap(b.T) >= n {
		return
	}
	t := make([]cp.Millis, len(b.T), n)
	u := make([]cp.UEID, len(b.UE), n)
	k := make([]cp.EventType, len(b.Type), n)
	copy(t, b.T)
	copy(u, b.UE)
	copy(k, b.Type)
	b.T, b.UE, b.Type = t, u, k
}

// Append adds one event to the batch, growing the columns as needed.
//
//cplint:hotpath one call per batched event; appends into the receiver's reused columns
func (b *Batch) Append(e Event) {
	b.T = append(b.T, e.T)
	b.UE = append(b.UE, e.UE)
	b.Type = append(b.Type, e.Type)
}

// At gathers the i-th event from the columns.
//
//cplint:hotpath three indexed loads, no allocation
func (b *Batch) At(i int) Event {
	return Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]}
}

// AppendTo appends the batch's events to dst in order and returns the
// extended slice — the bridge from a column batch back to row events.
func (b *Batch) AppendTo(dst []Event) []Event {
	for i := range b.T {
		dst = append(dst, Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]})
	}
	return dst
}

// BatchSource is the batched face of EventSource: the same device
// registry, with events delivered one Batch at a time instead of one
// Event at a time. The concatenation of the delivered batches is exactly
// the canonical event sequence Scan would deliver — batch boundaries are
// an implementation detail and carry no meaning (the byte-identity tests
// pin this).
//
// The *Batch passed to fn is reused between calls; fn must consume or
// copy it before returning.
type BatchSource interface {
	Devices(fn func(cp.UEID, cp.DeviceType) error) error
	ScanBatches(fn func(*Batch) error) error
}

// BatchSink is the batched face of EventSink: registrations first, then
// whole batches in canonical order. WriteBatch(b) is equivalent to
// Write(b.At(0)) … Write(b.At(b.Len()-1)).
type BatchSink interface {
	SetDevice(cp.UEID, cp.DeviceType) error
	WriteBatch(*Batch) error
}

// BatchIterator yields one stream's events in time order a run at a time:
// the pull-style batched counterpart of EventIterator, so MergeBatches
// makes one method call per run instead of per event. SliceIterator
// yields runs natively; AsBatchIterator adapts any EventIterator.
type BatchIterator interface {
	// NextRun fills dst from the front with the stream's next events,
	// returning how many were written; 0 means the stream is exhausted
	// (dst is assumed non-empty).
	NextRun(dst []Event) int
}

// NextRun implements BatchIterator by copying the next chunk of the
// already-materialized slice.
func (s *SliceIterator) NextRun(dst []Event) int {
	n := copy(dst, s.Events)
	s.Events = s.Events[n:]
	return n
}

// batchingSource adapts a per-event EventSource to BatchSource by
// accumulating DefaultBatchSize events per delivered batch (the final
// batch is ragged).
type batchingSource struct {
	src EventSource
}

func (b *batchingSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	return b.src.Devices(fn)
}

func (b *batchingSource) ScanBatches(fn func(*Batch) error) error {
	batch := NewBatch(DefaultBatchSize)
	err := b.src.Scan(func(e Event) error {
		batch.Append(e)
		if batch.Len() == batch.Cap() {
			if err := fn(batch); err != nil {
				return err
			}
			batch.Reset()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if batch.Len() > 0 {
		return fn(batch)
	}
	return nil
}

// unbatchingSource adapts a BatchSource back to a per-event EventSource.
type unbatchingSource struct {
	src BatchSource
}

func (u *unbatchingSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	return u.src.Devices(fn)
}

func (u *unbatchingSource) Scan(fn func(Event) error) error {
	return u.src.ScanBatches(Unbatch(fn))
}

// Unbatch returns the batch callback that feeds fn one event at a time,
// stopping at fn's first error: the per-event face of a source whose
// native unit is the batch.
func Unbatch(fn func(Event) error) func(*Batch) error {
	return func(b *Batch) error {
		for i := range b.T {
			if err := fn(Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]}); err != nil {
				return err
			}
		}
		return nil
	}
}

// batchingSink adapts a per-event EventSink to BatchSink by unrolling
// each batch.
type batchingSink struct {
	dst EventSink
}

func (s *batchingSink) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	return s.dst.SetDevice(ue, d)
}

func (s *batchingSink) WriteBatch(b *Batch) error {
	for i := range b.T {
		if err := s.dst.Write(Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]}); err != nil {
			return err
		}
	}
	return nil
}

// AsBatchSource returns src's batched face: src itself when it already
// speaks batches natively (generator sources, file sources), else an
// adapter that groups src's per-event stream into DefaultBatchSize
// batches. Either way the delivered event sequence is identical to
// src.Scan's.
func AsBatchSource(src EventSource) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &batchingSource{src: src}
}

// AsEventSource returns src's per-event face: src itself when it
// implements EventSource natively, else an unbatching adapter. Existing
// per-event consumers keep working unchanged on any batched source.
func AsEventSource(src BatchSource) EventSource {
	if es, ok := src.(EventSource); ok {
		return es
	}
	return &unbatchingSource{src: src}
}

// AsBatchSink returns dst's batched face: dst itself when it accepts
// batches natively (the writers, *Trace), else an adapter that unrolls
// each batch into per-event Writes.
func AsBatchSink(dst EventSink) BatchSink {
	if bs, ok := dst.(BatchSink); ok {
		return bs
	}
	return &batchingSink{dst: dst}
}

// CopyBatches streams src into dst like Copy, but moves events in batches:
// when both ends speak batches natively the whole pipe makes one call per
// ~256 events and the per-event interface hop disappears. The bytes
// written are identical to Copy's — adapters on either end preserve the
// event sequence exactly.
func CopyBatches(dst EventSink, src EventSource) error {
	if err := src.Devices(dst.SetDevice); err != nil {
		return err
	}
	return AsBatchSource(src).ScanBatches(AsBatchSink(dst).WriteBatch)
}

// WriteBatch implements BatchSink on the in-memory trace.
func (tr *Trace) WriteBatch(b *Batch) error {
	for _, ue := range b.UE {
		if _, ok := tr.Device[ue]; !ok {
			return fmt.Errorf("trace: event for unknown UE %d (register it first)", ue)
		}
	}
	tr.Events = b.AppendTo(tr.Events)
	return nil
}

// ScanBatches implements BatchSource on the in-memory trace, delivering
// the same canonical sequence as Scan in DefaultBatchSize groups.
func (tr *Trace) ScanBatches(fn func(*Batch) error) error {
	return (&batchingSource{src: tr}).ScanBatches(fn)
}

// iterRuns adapts a per-event EventIterator to BatchIterator.
type iterRuns struct {
	it EventIterator
}

func (r *iterRuns) NextRun(dst []Event) int {
	n := 0
	for n < len(dst) {
		ev, ok := r.it.Next()
		if !ok {
			break
		}
		dst[n] = ev
		n++
	}
	return n
}

// AsBatchIterator returns it's batched face: it itself when it yields
// runs natively, else a wrapper that fills runs one Next at a time.
func AsBatchIterator(it EventIterator) BatchIterator {
	if bi, ok := it.(BatchIterator); ok {
		return bi
	}
	return &iterRuns{it: it}
}

// mergeRunSize is the per-leaf refill granularity of MergeBatches: long
// enough to amortize the NextRun call, short enough that k leaves' run
// buffers (k × 64 × 16 B, one slab) stay cache-resident for populations in
// the thousands. Only MergeBatches' callers pay for the slab — the
// interpreted engine's Source and the tests and benchmark replays that use
// the merge as their oracle; the compiled sources order by window
// (AssembleWindows) and hold no run buffers.
const mergeRunSize = 64

// MergeBatches is the batch-refill variant of MergeScan: it k-way merges
// the iterators — each individually ordered under Event.Before — into
// canonically ordered batches delivered to fn. Each leaf holds a run of
// up to mergeRunSize pending events (refilled by one NextRun call when
// drained) instead of a single event, and output accumulates into a
// reused DefaultBatchSize batch, so both edges of the merge make one
// call per run/batch rather than per event.
//
// The loser tree compares exactly the same head events in the same order
// as MergeScan — Before is a total order on distinct events and ties
// break to the lower iterator index — so the merged sequence is
// byte-identical to the per-event merge regardless of run or batch
// boundaries. The *Batch passed to fn is reused; fn must not retain it.
func MergeBatches(fn func(*Batch) error, its []BatchIterator) error {
	// One shared slab backs every leaf's run buffer: k small buffers in
	// one allocation, carved into fixed strides.
	slab := make([]Event, len(its)*mergeRunSize)
	runs := make([][]Event, 0, len(its)) // filled prefix of each leaf's stride
	cur := make([]int, 0, len(its))      // index of each leaf's head within its run
	evs := make([]Event, 0, len(its))    // each leaf's head event (the comparator's view)
	act := make([]BatchIterator, 0, len(its))
	for i, it := range its {
		buf := slab[i*mergeRunSize : (i+1)*mergeRunSize]
		if n := it.NextRun(buf); n > 0 {
			runs = append(runs, buf[:n])
			cur = append(cur, 0)
			evs = append(evs, buf[0])
			act = append(act, it)
		}
	}
	k := len(act)
	if k == 0 {
		return nil
	}
	dead := make([]bool, k)
	// Complete-tree embedding, identical to MergeScan: internal nodes
	// 1..k-1, leaf i at node k+i, tree[0] the overall winner.
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
	out := NewBatch(DefaultBatchSize)
	for alive := k; alive > 0; {
		w := tree[0]
		out.Append(evs[w])
		if out.Len() == out.Cap() {
			if err := fn(out); err != nil {
				return err
			}
			out.Reset()
		}
		if next := cur[w] + 1; next < len(runs[w]) {
			cur[w] = next
			evs[w] = runs[w][next]
		} else if n := act[w].NextRun(runs[w][:mergeRunSize]); n > 0 {
			runs[w] = runs[w][:n]
			cur[w] = 0
			evs[w] = runs[w][0]
		} else {
			dead[w] = true
			alive--
			if alive == 0 {
				break
			}
		}
		tree[0] = sift(w, k, tree, evs, dead)
	}
	if out.Len() > 0 {
		return fn(out)
	}
	return nil
}
