package trace

import (
	"fmt"

	"cptraffic/internal/cp"
)

// denseUEs bounds the ids the registry mirrors in its bitset: 2²² ids are
// 512 KiB of bits at most, grown only as far as the largest registered id
// below the bound, and every population the pipeline builds (dense ids
// from 0) sits far inside it. It is not a knob: ids at or above it are
// just as valid, they cost one map probe per event instead of one bit
// test, and a registry of a few huge ids pays nothing for the bitset.
const denseUEs = 1 << 22

// registry is the device table of a writer or a Scanner; its zero value
// is empty. The map is the truth, filled at registration time
// (re-registration needs the type); dense mirrors membership for ids below
// denseUEs so that the per-event question — is this UE registered? — is a
// shift and a mask.
type registry struct {
	typ   map[cp.UEID]cp.DeviceType
	dense []uint64 // bit ue of word ue/64, for every registered ue < denseUEs
}

// add registers ue as d. A repeated registration is not fresh; one that
// changes the type is an error.
func (r *registry) add(ue cp.UEID, d cp.DeviceType) (fresh bool, err error) {
	if prev, ok := r.typ[ue]; ok {
		if prev != d {
			return false, fmt.Errorf("trace: UE %d already registered as %v, cannot change to %v", ue, prev, d)
		}
		return false, nil
	}
	if r.typ == nil {
		r.typ = make(map[cp.UEID]cp.DeviceType)
	}
	r.typ[ue] = d
	if ue < denseUEs {
		w := int(ue >> 6)
		if w >= len(r.dense) { // double, from 512 bytes up: a handful of allocations per registry
			grown := make([]uint64, min(max(w+1, 2*len(r.dense), 64), denseUEs/64))
			copy(grown, r.dense)
			r.dense = grown
		}
		r.dense[w] |= 1 << (ue & 63)
	}
	return true, nil
}

// has reports whether ue is registered. Words the bitset never grew to
// hold no registered id below denseUEs, but asking the map is as right
// and keeps the rule in one place.
func (r *registry) has(ue cp.UEID) bool {
	if w := int(ue >> 6); w < len(r.dense) {
		return r.dense[w]>>(ue&63)&1 != 0
	}
	_, ok := r.typ[ue]
	return ok
}

// orderError is the stream check's refusal of an event that orders
// before its predecessor. It is a type so that FileSource can say the
// same thing with the file's name and ErrNotCanonical.
type orderError struct{ ev, after Event }

func (e *orderError) Error() string {
	return fmt.Sprintf("trace: event %v out of canonical order (after %v)", e.ev, e.after)
}

// streamCheck is the one check of the event-stream contract, shared by
// both writers and FileSource: nothing after Close, every event's UE
// registered and its type defined, the first event not before time zero,
// and canonical order from each event to the next, inside a batch and
// from one batch to the next (which is why only the first can be
// negative). A writer that passed the check formats without looking
// again; whatever passes is what the Scanner reads back.
type streamCheck struct {
	reg     registry
	last    Event // the last accepted event, once hasLast
	hasLast bool
	closed  bool
}

// check returns how many leading events of b satisfy the contract and,
// when that is not all of them, why the next one does not. The accepted
// prefix counts as delivered: it is what the following event, in this
// batch or the next, is ordered against.
func (c *streamCheck) check(b *Batch) (int, error) {
	if c.closed {
		return 0, fmt.Errorf("trace: Write after Close")
	}
	if b.Len() == 0 {
		return 0, nil
	}
	if !c.hasLast && b.T[0] < 0 {
		return 0, fmt.Errorf("trace: negative timestamp %d", b.T[0])
	}
	n := c.accept(b)
	if n == b.Len() {
		return n, nil
	}
	e := b.At(n)
	switch {
	case !c.reg.has(e.UE):
		return n, fmt.Errorf("trace: event for unregistered UE %d", e.UE)
	case !e.Type.Valid():
		return n, fmt.Errorf("trace: invalid event type %d", uint8(e.Type))
	default:
		return n, &orderError{ev: e, after: c.last}
	}
}

// accept advances the order state over the leading events of a non-empty
// b that are registered, of a defined type and in canonical order, and
// returns their number. Times never decrease from the first event on, so
// check's look at a stream's first time covers every later one.
//
//cplint:hotpath one pass over the three columns per batch: order state in locals, the registry a bit test
func (c *streamCheck) accept(b *Batch) int {
	ts := b.T
	ues, types := b.UE[:len(ts)], b.Type[:len(ts)]
	lastT, lastTie := c.last.T, tieBreak(c.last.UE, c.last.Type)
	if !c.hasLast {
		lastT, lastTie = ts[0], 0 // nothing orders before the first event
	}
	i := 0
	for ; i < len(ts); i++ {
		t, ue, typ := ts[i], ues[i], types[i]
		tie := tieBreak(ue, typ)
		if !c.reg.has(ue) || !typ.Valid() || t < lastT || (t == lastT && tie < lastTie) {
			break
		}
		lastT, lastTie = t, tie
	}
	if i > 0 {
		c.last, c.hasLast = b.At(i-1), true
	}
	return i
}

// tieBreak packs an event's (UE, type) so that one comparison orders two
// events of the same millisecond the way Event.Before does.
func tieBreak(ue cp.UEID, typ cp.EventType) uint64 {
	return uint64(ue)<<8 | uint64(typ)
}
