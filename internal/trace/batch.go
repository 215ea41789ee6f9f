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
// registry; registrations travel through the source's Devices callback.
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

// BatchSink is the batched face of EventSink: registrations first, then
// whole batches in canonical order. WriteBatch(b) is equivalent to
// Write(b.At(0)) … Write(b.At(b.Len()-1)).
type BatchSink interface {
	SetDevice(cp.UEID, cp.DeviceType) error
	WriteBatch(*Batch) error
}

// Unbatch returns the batch callback that feeds fn one event at a time,
// stopping at fn's first error: the one per-event adapter over a source,
// whose unit is the batch.
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

// AsBatchSink returns dst's batched face: dst itself when it accepts
// batches natively (the writers, *Trace), else an adapter that unrolls
// each batch into per-event Writes. (bench/gen.go's probeSink is handed to
// CopyBatches as a plain EventSink and is found here.)
func AsBatchSink(dst EventSink) BatchSink {
	if bs, ok := dst.(BatchSink); ok {
		return bs
	}
	return &batchingSink{dst: dst}
}

// CopyBatches streams src into dst: registrations first, then events a
// batch at a time. It is the universal pipe between pipeline stages; with
// a FileSource and a StreamWriter both ends run in O(UEs) memory, and a
// sink that accepts batches natively sees one call per ~256 events.
// Callers owning a writer sink must still Close it afterwards.
func CopyBatches(dst EventSink, src EventSource) error {
	if err := src.Devices(dst.SetDevice); err != nil {
		return err
	}
	return src.ScanBatches(AsBatchSink(dst).WriteBatch)
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
