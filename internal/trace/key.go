package trace

import (
	"math/bits"
	"slices"

	"cptraffic/internal/cp"
)

// The canonical event order (Event.Before: time, then UE, then type, all
// ascending) is exactly the ascending order of the packed integer key
//
//	(T - t0) << (ueBits + typeBits) | UE << typeBits | Type
//
// whenever the three fields' bit widths fit in one uint64. The key also
// holds everything the event holds, so the key *is* the event: equal
// keys are identical events, two distinct events never tie, and any
// correct sort of the keys — radix, comparison, stable or not — decodes
// to the same bytes as any Before-based merge or sort. Generate's
// assembly therefore moves 8-byte keys, not 16-byte events, and decodes
// once, on the way into the final slice (assembleKeys).

// KeyLayout fixes the field widths of the packed key for one trace: a
// lower bound t0 and inclusive upper bounds on T and UE, declared before
// any event exists. The widths are exact for those bounds, and Pack
// verifies every event against them, so a fitting layout is a checked
// fact about the keys, not an assumption.
type KeyLayout struct {
	t0       cp.Millis
	maxDelta uint64 // largest T - t0
	maxUE    uint64
	typeBits uint // also the UE field's shift
	tShift   uint
	ueMask   uint64
	bits     uint // width of the whole key
}

// NewKeyLayout returns the layout for events with t0 <= T <= tMax and
// UE <= ueMax, and whether the key fits in 64 bits. When it does not (a
// span of centuries, or ids far beyond any population) the caller must
// order its events some other way.
func NewKeyLayout(t0, tMax cp.Millis, ueMax cp.UEID) (KeyLayout, bool) {
	if tMax < t0 {
		return KeyLayout{}, false
	}
	l := KeyLayout{
		t0:       t0,
		maxDelta: uint64(tMax) - uint64(t0), // exact in uint64 even when the int64 difference overflows
		maxUE:    uint64(ueMax),
		typeBits: uint(bits.Len(uint(cp.NumEventTypes - 1))),
	}
	ueBits := uint(bits.Len64(l.maxUE))
	l.tShift = l.typeBits + ueBits
	l.ueMask = 1<<ueBits - 1
	l.bits = l.tShift + uint(bits.Len64(l.maxDelta))
	return l, l.bits <= 64
}

// Pack returns e's key and whether e lies inside the layout's declared
// bounds. The key of an event outside them is meaningless.
//
//cplint:hotpath one call per generated event; compares, shifts and ors
func (l *KeyLayout) Pack(e Event) (uint64, bool) {
	d := uint64(e.T) - uint64(l.t0)
	ok := e.T >= l.t0 && d <= l.maxDelta && uint64(e.UE) <= l.maxUE && uint64(e.Type)>>l.typeBits == 0
	return d<<l.tShift | uint64(e.UE)<<l.typeBits | uint64(e.Type), ok
}

// Unpack is Pack's inverse.
//
//cplint:hotpath one call per assembled event; shifts and masks
func (l *KeyLayout) Unpack(k uint64) Event {
	return Event{
		T:    l.t0 + cp.Millis(k>>l.tShift),
		UE:   cp.UEID(k >> l.typeBits & l.ueMask),
		Type: cp.EventType(k & (1<<l.typeBits - 1)),
	}
}

// maxKey is the largest key the layout can produce.
func (l *KeyLayout) maxKey() uint64 {
	return l.maxDelta<<l.tShift | l.maxUE<<l.typeBits | (1<<l.typeBits - 1)
}

// KeyRun is one producer's contiguous run of packed keys, in whatever
// order the producer emitted them. It remembers whether any event it was
// given lay outside the layout, so a run whose keys are meaningless
// cannot be assembled by mistake.
type KeyRun struct {
	keys    []uint64
	outside bool
}

// Append packs evs under l onto the run, in order. While the array stays
// put it stores back the length alone: a run handed to Population.Drain
// lives on the heap, and storing its pointer there on every call would
// shade the array through the write barrier while the collector marks,
// racing the collector's own scan of the run, which then counts the
// array's bytes twice in the live heap it reports.
//
//cplint:hotpath one call per engine step: Pack and an 8-byte append per event
func (r *KeyRun) Append(l *KeyLayout, evs ...Event) {
	keys, outside := r.keys, r.outside
	for _, e := range evs {
		k, ok := l.Pack(e)
		keys = append(keys, k)
		outside = outside || !ok
	}
	if cap(keys) == cap(r.keys) {
		r.keys = r.keys[:len(keys)] // the same array: no pointer store
	} else {
		r.keys = keys
	}
	r.outside = outside
}

// Events returns the run's events in the order they were appended, and
// whether every one of them lay inside l. The engines' drain tests in
// core and world read one drainUntil call through it.
func (r *KeyRun) Events(l *KeyLayout) ([]Event, bool) {
	evs := make([]Event, len(r.keys))
	for i, k := range r.keys {
		evs[i] = l.Unpack(k)
	}
	return evs, !r.outside
}

// Reset empties the run for reuse, keeping its storage.
func (r *KeyRun) Reset() { r.keys, r.outside = r.keys[:0], false }

// forecast tells the run that done of its producer's total UEs have been
// appended, and how many runs the assembly will take. Once, a sixteenth
// of the way through (and no sooner than 64 UEs), it reserves room for
// the rest at the density seen so far plus an eighth: append's geometric
// growth copies everything so far at each step — five times the final
// run in all — and this ends it early. A lone run reserves twice that,
// 16 B per key, so that assembleKeys can partition the keys into the
// run's upper half and decode the events over the whole buffer instead of
// allocating 24 B per key more. UEs are independent draws, so the
// estimate is close; where it is short, append grows the run as it always
// did, and a lone run left without room for its partition is assembled
// like several. Capacity never shows in the assembled bytes.
func (r *KeyRun) forecast(done, total, runs int) {
	if done != max(total/16, 64) {
		return
	}
	want := float64(len(r.keys)) / float64(done) * float64(total) * 1.125
	if runs == 1 {
		want *= 2
	}
	if int(want) > cap(r.keys) {
		r.keys = slices.Grow(r.keys, int(want)-len(r.keys))
	}
}
