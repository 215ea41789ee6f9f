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
