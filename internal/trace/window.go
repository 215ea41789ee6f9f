package trace

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cptraffic/internal/cp"
)

// Windowed assembly orders a population of time-ordered streams — one per
// UE, each able to say when it fires next — without a merge: it advances
// every stream through one time window [w0, w1) at a time, packs the
// window's events into 8-byte keys relative to w0 (key.go), sorts them in
// cache with the radix kernel assembleKeys uses — on their time bits
// alone, with the same order check and second sort (emitWindow) — and
// decodes the sorted keys a batch at a time into the columns it hands
// out, so no window-sized column buffer exists.
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
//
// A span measured at one rate overshoots where the rate steps up inside
// it (a quiet night, then the morning: up to 2.4 targets on a diurnal
// model), and the run and the scratch are sized by the largest window.
// So a window is filled in two parts. The sample — the first quarter of
// the streams — is drained to w1 first; its keys, scaled by the ratio of
// all keys to the sample's in the window before, estimate the window's.
// Past cutAbove targets the window is cut where the sample's keys reach
// one target's share (cutTime), and the other streams are drained to the
// cut only. The sample's keys past the cut are carried, relative to the
// window's start, into the windows after it, which start no later than
// the first of them. Every stream is still drained once a window, so the
// estimate costs a pass over the sample's keys and a cut two more; a
// window holds at most 1.25 targets as far as the sample's share holds
// from one window to the next: on streams that fire alike
// (TestWindowKeysBounded), and on the generator's populations, whose UEs
// are independent draws.

// NoPending is the pending time of a stream that has nothing left.
const NoPending = cp.Millis(math.MaxInt64)

const (
	// sampleShare sets the sample: the first ceil(N/sampleShare) of N
	// streams.
	sampleShare = 4
	// cutAbove is the estimated size, in targets, past which a window is
	// cut back to about one target.
	cutAbove = 1.125
	// minSample is the fewest sample keys a window needs for its share of
	// the keys to stand as the next window's estimate.
	minSample = 64
)

// windowAssembler is assembleWindows' state: every buffer is reused from
// window to window, so the steady state allocates nothing.
type windowAssembler[S any] struct {
	fn      func(*Batch) error
	streams []S
	drain   func(s *S, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis
	pending []cp.Millis // per stream: no event before this time; the only per-stream state touched for a sleeping stream
	run     KeyRun      // the current window's keys
	carry   []uint64    // sample keys at or past the window's cut, relative to its start
	scratch []uint64
	hist    []int32
	// cols[cur] holds decoded events not yet handed out, fewer than
	// DefaultBatchSize: the batch being filled, which a window's last
	// events leave for the next window to complete. The two alternate, so
	// a view kept past its callback still reads the poison of the one
	// after (-tags batchdebug), not the next batch's events.
	cols [2]Batch
	cur  int
	view Batch // the batch fn sees: a full cols[cur]
	// windows counts the windows sorted, largest the most keys one held,
	// and resorted the windows sorted again on the whole key (emitWindow).
	windows, largest, resorted int
}

// assembleWindows delivers the events of streams (ids at most ueMax) to fn
// in canonical order, in full DefaultBatchSize batches but for the last.
// drain follows Population.Drain's contract. The *Batch passed to fn is
// reused; fn must not retain it. fn's first error aborts the assembly and
// is returned. A stream that breaks drain's contract — an event outside
// the window it was asked for, above all one older than the window's
// start, which would have to be emitted out of order — is an error, and
// nothing is delivered after it. It also returns how many windows it
// sorted twice (emitWindow).
func assembleWindows[S any](fn func(*Batch) error, streams []S, ueMax cp.UEID, drain func(s *S, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis) (resorted int, err error) {
	a := newWindowAssembler(fn, streams, drain)
	err = a.assemble(ueMax)
	return a.resorted, err
}

// newWindowAssembler returns the assembler assembleWindows runs; a test
// or benchmark that runs it itself can read its window counts afterwards.
func newWindowAssembler[S any](fn func(*Batch) error, streams []S, drain func(s *S, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis) *windowAssembler[S] {
	a := &windowAssembler[S]{fn: fn, streams: streams, drain: drain, pending: make([]cp.Millis, len(streams))}
	a.cols[0].Grow(DefaultBatchSize)
	a.cols[1].Grow(DefaultBatchSize)
	return a
}

// assemble is assembleWindows.
func (a *windowAssembler[S]) assemble(ueMax cp.UEID) error {
	// Nothing is older than the smallest limit: the first round only asks
	// every stream for its first pending time.
	var lay KeyLayout
	w0 := NoPending
	for i := range a.pending {
		a.pending[i] = a.drain(&a.streams[i], math.MinInt64, &lay, &a.run)
		w0 = min(w0, a.pending[i])
	}
	if len(a.run.keys) > 0 {
		return errors.New("trace: a stream delivered an event before any window was open")
	}
	// The widest span whose window-relative key still fits: 64 bits less
	// the UE and type fields.
	lay, _ = NewKeyLayout(0, 0, ueMax)
	maxSpan := cp.Millis(1) << min(64-lay.tShift, 62)
	target := float64(max(bucketTarget, len(a.streams)))
	sample := (len(a.streams) + sampleShare - 1) / sampleShare
	perSample := float64(len(a.streams)) / float64(max(sample, 1)) // window keys per sample key
	for span := cp.Millis(1); w0 != NoPending; {
		w1 := w0 + span
		if w1 < w0 { // past the end of time
			w1 = NoPending
		}
		lay, _ = NewKeyLayout(w0, w1-1, ueMax)
		carried := len(a.run.keys)
		next := a.fill(0, sample, w1, &lay)
		// The run holds only the sample's keys yet: if they say the window
		// will overshoot, cut it where they reach one target's share.
		cut := w1
		if seen := a.below(w1-w0, &lay); float64(seen)*perSample > cutAbove*target {
			cut = a.cutTime(w0, w1, &lay, int(target/perSample))
			lay, _ = NewKeyLayout(w0, cut-1, ueMax)
		}
		if cut < w1 || carried > 0 {
			a.carryFrom(uint64(cut-w0), &lay)
		}
		kept := len(a.run.keys)
		next = min(next, a.fill(sample, len(a.streams), cut, &lay))
		if a.run.outside {
			return fmt.Errorf("trace: a stream delivered an event outside the window [%d, %d) it was drained for, or a UE above %d (streams must be time-ordered)", w0, w1, ueMax)
		}
		n := len(a.run.keys)
		if kept >= minSample {
			perSample = float64(n) / float64(kept)
		}
		a.windows++
		a.largest = max(a.largest, n)
		if err := a.emitWindow(&lay); err != nil {
			return err
		}
		// Towards target keys a window: at most double (an empty window
		// says nothing about the rate), shrink at once.
		span = max(cp.Millis(min(float64(cut-w0)*target/max(float64(n), target/2), float64(maxSpan))), 1)
		w0 = a.restart(w0, max(cut, next), &lay)
	}
	if a.cols[a.cur].Len() == 0 {
		return nil
	}
	return a.flush()
}

// fill drains every stream of streams[lo:hi] that may have an event
// before w1 into the run and returns the earliest of their pending times
// afterwards.
//
//cplint:hotpath one compare per stream per window; only streams that fire in the window are touched
func (a *windowAssembler[S]) fill(lo, hi int, w1 cp.Millis, lay *KeyLayout) cp.Millis {
	next := NoPending
	for i, p := range a.pending[lo:hi] {
		if p < w1 {
			p = a.drain(&a.streams[lo+i], w1, lay, &a.run)
			a.pending[lo+i] = p
		}
		next = min(next, p)
	}
	return next
}

// below counts the run's keys less than d after the window's start.
func (a *windowAssembler[S]) below(d cp.Millis, lay *KeyLayout) int {
	n := 0
	for _, k := range a.run.keys {
		if k>>lay.tShift < uint64(d) {
			n++
		}
	}
	return n
}

// cutTime returns a time in (w0, w1] before which at most k of the run's
// keys lie, of the more than k that lie before w1. It buckets them by time
// into at most 256 buckets and cuts where the bucket that takes the count
// past k begins; when that is the first bucket, it refines the first
// bucket. A millisecond holding more than k keys is a window of its own.
func (a *windowAssembler[S]) cutTime(w0, w1 cp.Millis, lay *KeyLayout, k int) cp.Millis {
	span := uint64(w1 - w0)
	for {
		shift := uint(max(bits.Len64(span-1)-8, 0))
		var hist [256]int
		for _, key := range a.run.keys {
			if d := key >> lay.tShift; d < span {
				hist[d>>shift]++
			}
		}
		b, sum := 0, hist[0]
		for sum <= k {
			b++
			sum += hist[b]
		}
		if b > 0 || shift == 0 {
			return w0 + max(cp.Millis(b)<<shift, 1)
		}
		span = 1 << shift
	}
}

// carryFrom moves the run's keys d or more after the window's start to
// the carry, keeping the rest in order.
func (a *windowAssembler[S]) carryFrom(d uint64, lay *KeyLayout) {
	keys, kept := a.run.keys, 0
	for _, k := range keys {
		if k>>lay.tShift >= d {
			a.carry = append(a.carry, k)
		} else {
			keys[kept] = k
			kept++
		}
	}
	a.run.keys = keys[:kept]
}

// restart empties the run for the window after the one starting at w0,
// and returns its start: next, or the earliest carried key's time if that
// comes first. The carry moves into the run, relative to that start.
func (a *windowAssembler[S]) restart(w0, next cp.Millis, lay *KeyLayout) cp.Millis {
	a.run.Reset()
	if len(a.carry) == 0 {
		return next
	}
	start := min(next, w0+cp.Millis(slices.Min(a.carry)>>lay.tShift))
	d := uint64(start-w0) << lay.tShift
	for _, k := range a.carry {
		a.run.keys = append(a.run.keys, k-d)
	}
	a.carry = a.carry[:0]
	return start
}

// emitWindow sorts the run's keys and hands them to fn decoded, in full
// DefaultBatchSize batches; the events short of a full batch stay in cols
// for the next window. The run holds the carried sample keys, then the
// sample's, then the other streams': stream after stream, each in its own
// order, and the carry holds keys older than any the sample drains after
// it. So, as in assembleKeys, a stable sort on the time bits alone orders
// the whole key, and a window the check finds out of order is sorted
// again on every bit before any of it is decoded.
func (a *windowAssembler[S]) emitWindow(lay *KeyLayout) error {
	keys := a.run.keys
	n := len(keys)
	a.scratch = slices.Grow(a.scratch[:0], n)[:n]
	timeBits := newRadixPlan(n, lay.tShift, lay.bits)
	a.hist = timeBits.grow(a.hist)
	sorted, spare := timeBits.sort(keys, a.scratch, a.hist)
	if !slices.IsSorted(sorted) {
		allBits := newRadixPlan(n, 0, lay.bits)
		a.hist = allBits.grow(a.hist)
		sorted, _ = allBits.sort(sorted, spare, a.hist)
		a.resorted++
	}
	for len(sorted) > 0 {
		b := &a.cols[a.cur]
		held := b.Len()
		m := min(DefaultBatchSize-held, len(sorted))
		b.T, b.UE, b.Type = b.T[:held+m], b.UE[:held+m], b.Type[:held+m]
		decodeColumns(lay, sorted[:m], b.T[held:], b.UE[held:], b.Type[held:])
		sorted = sorted[m:]
		if held+m == DefaultBatchSize {
			if err := a.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeColumns unpacks keys into the columns of a batch.
//
//cplint:hotpath one decode and three column stores per key, inside one batch
func decodeColumns(l *KeyLayout, keys []uint64, t []cp.Millis, ue []cp.UEID, typ []cp.EventType) {
	for i, k := range keys {
		e := l.Unpack(k)
		t[i], ue[i], typ[i] = e.T, e.UE, e.Type
	}
}

// flush hands fn the events held in cols[cur] as one batch, empties it,
// and fills the other next.
func (a *windowAssembler[S]) flush() error {
	b := &a.cols[a.cur]
	n := b.Len()
	a.view = Batch{T: b.T[:n:n], UE: b.UE[:n:n], Type: b.Type[:n:n]}
	if err := a.fn(&a.view); err != nil {
		return err
	}
	b.Reset()
	a.cur ^= 1
	return nil
}
