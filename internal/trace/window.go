package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cptraffic/internal/cp"
)

// Windowed assembly orders a population of time-ordered streams — one per
// UE, each able to say when it fires next — without a merge: it advances
// every stream through one time window [w0, w1) at a time, packs the
// window's events into 8-byte keys relative to w0 (key.go), sorts them in
// cache with the radix kernel assembleKeys uses, and decodes the last pass
// straight into the batch columns it hands out.
//
// Any window length gives the same bytes: every event with T < w1 is
// emitted before any event with T >= w1, and inside a window the key's
// integer order is the canonical order, so the concatenation is the
// canonical order of the whole trace however it was cut. The span only
// decides how many keys are sorted at once, so it follows the key count
// of the window before — a measurement, not a setting — towards
// bucketTarget, the size the kernel sorts in cache, or one key per stream
// where that is more: a window costs a compare per stream and a visit to
// the state of each one that fires, and below an event per stream those
// visits, not the sort, are the cost. It is clamped so the window-relative
// key fits 64 bits whatever the trace's duration, which is why this path,
// unlike assembleKeys, cannot refuse; and a silent stretch costs nothing,
// because the next window starts at the earliest pending time.

// NoPending is the pending time of a stream that has nothing left.
const NoPending = cp.Millis(math.MaxInt64)

// windowAssembler is assembleWindows' state: every buffer is reused from
// window to window, so the steady state allocates nothing.
type windowAssembler[S any] struct {
	fn      func(*Batch) error
	streams []S
	drain   func(s *S, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis
	pending []cp.Millis // per stream: no event before this time; the only per-stream state touched for a sleeping stream
	run     KeyRun      // the current window's keys
	scratch []uint64
	hist    []int32
	// cols holds decoded events not yet handed out: the tail of earlier
	// windows (fewer than DefaultBatchSize) followed by the current window.
	cols Batch
	view Batch // the batch fn sees: DefaultBatchSize events of cols
}

// assembleWindows delivers the events of streams (ids at most ueMax) to fn
// in canonical order, in full DefaultBatchSize batches but for the last.
// drain follows Population.Drain's contract. The *Batch passed to fn is
// reused; fn must not retain it. fn's first error aborts the assembly and
// is returned. A stream that breaks drain's contract — an event outside
// the window it was asked for, above all one older than the window's
// start, which would have to be emitted out of order — is an error, and
// nothing is delivered after it.
func assembleWindows[S any](fn func(*Batch) error, streams []S, ueMax cp.UEID, drain func(s *S, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis) error {
	a := windowAssembler[S]{fn: fn, streams: streams, drain: drain, pending: make([]cp.Millis, len(streams))}
	// Nothing is older than the smallest limit: the first round only asks
	// every stream for its first pending time.
	var lay KeyLayout
	w0 := NoPending
	for i := range a.pending {
		a.pending[i] = drain(&streams[i], math.MinInt64, &lay, &a.run)
		w0 = min(w0, a.pending[i])
	}
	if len(a.run.keys) > 0 {
		return errors.New("trace: a stream delivered an event before any window was open")
	}
	// The widest span whose window-relative key still fits: 64 bits less
	// the UE and type fields.
	lay, _ = NewKeyLayout(0, 0, ueMax)
	maxSpan := cp.Millis(1) << min(64-lay.tShift, 62)
	target := float64(max(bucketTarget, len(streams)))
	for span := cp.Millis(1); w0 != NoPending; {
		w1 := w0 + span
		if w1 < w0 { // past the end of time
			w1 = NoPending
		}
		lay, _ = NewKeyLayout(w0, w1-1, ueMax)
		a.run.Reset()
		next := a.fill(w1, &lay)
		if a.run.outside {
			return fmt.Errorf("trace: a stream delivered an event outside the window [%d, %d) it was drained for, or a UE above %d (streams must be time-ordered)", w0, w1, ueMax)
		}
		n := len(a.run.keys)
		a.sortWindow(&lay)
		if err := a.flush(DefaultBatchSize); err != nil {
			return err
		}
		// Towards target keys a window: at most double (an empty window
		// says nothing about the rate), shrink at once.
		span = max(cp.Millis(min(float64(w1-w0)*target/max(float64(n), target/2), float64(maxSpan))), 1)
		w0 = max(w1, next)
	}
	return a.flush(1)
}

// fill drains every stream that may have an event before w1 into the run
// and returns the earliest pending time afterwards.
//
//cplint:hotpath one compare per stream per window; only streams that fire in the window are touched
func (a *windowAssembler[S]) fill(w1 cp.Millis, lay *KeyLayout) cp.Millis {
	next := NoPending
	for i, p := range a.pending {
		if p < w1 {
			p = a.drain(&a.streams[i], w1, lay, &a.run)
			a.pending[i] = p
		}
		next = min(next, p)
	}
	return next
}

// sortWindow sorts the run's keys and decodes them onto the end of cols.
func (a *windowAssembler[S]) sortWindow(lay *KeyLayout) {
	keys := a.run.keys
	n, held := len(keys), a.cols.Len()
	a.scratch = slices.Grow(a.scratch[:0], n)[:n]
	a.cols.T = slices.Grow(a.cols.T, n)[:held+n]
	a.cols.UE = slices.Grow(a.cols.UE, n)[:held+n]
	a.cols.Type = slices.Grow(a.cols.Type, n)[:held+n]
	passes, digit := passPlan(n, lay.bits)
	need := passes << digit
	if cap(a.hist) < need {
		a.hist = make([]int32, need)
	}
	sortColumns(lay, keys, a.scratch, a.cols.T[held:], a.cols.UE[held:], a.cols.Type[held:], a.hist[:need], passes, digit)
}

// sortColumns is sortBucket with a struct-of-arrays destination.
//
//cplint:hotpath the window sort's last pass: one decode and three column stores per key
func sortColumns(l *KeyLayout, keys, scratch []uint64, t []cp.Millis, ue []cp.UEID, typ []cp.EventType, hist []int32, passes int, digit uint) {
	src, offs, shift := sortPasses(keys, scratch, hist, passes, digit)
	if offs == nil {
		for i, k := range src {
			e := l.Unpack(k)
			t[i], ue[i], typ[i] = e.T, e.UE, e.Type
		}
		return
	}
	mask := uint64(1)<<digit - 1
	for _, k := range src {
		d := k >> shift & mask
		i := offs[d]
		offs[d]++
		e := l.Unpack(k)
		t[i], ue[i], typ[i] = e.T, e.UE, e.Type
	}
}

// flush hands fn the held events DefaultBatchSize at a time while at least
// atLeast remain, then moves what is left to the front of cols.
func (a *windowAssembler[S]) flush(atLeast int) error {
	held, i := a.cols.Len(), 0
	for held-i >= atLeast {
		j := min(i+DefaultBatchSize, held)
		a.view = Batch{T: a.cols.T[i:j:j], UE: a.cols.UE[i:j:j], Type: a.cols.Type[i:j:j]}
		if err := a.fn(&a.view); err != nil {
			return err
		}
		poisonBatch(&a.view)
		i = j
	}
	a.cols.T = a.cols.T[:copy(a.cols.T, a.cols.T[i:held])]
	a.cols.UE = a.cols.UE[:copy(a.cols.UE, a.cols.UE[i:held])]
	a.cols.Type = a.cols.Type[:copy(a.cols.Type, a.cols.Type[i:held])]
	return nil
}
