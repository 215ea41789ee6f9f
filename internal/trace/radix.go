package trace

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"cptraffic/internal/cp"
)

// Assembly sorts packed keys (key.go) in two stages, sized so that keys
// cross main memory once.
//
// Stage one is a single counting partition of every run on the key's top
// digit into one n-key region: afterwards bucket b holds exactly the keys
// whose top digit is b, so the buckets are already in their final
// relative order. The digit is as narrow as the bucket target allows —
// a few hundred write streams, which the TLB holds, against the 2 048 of
// a fixed 11-bit pass.
//
// Stage two finishes each bucket on its own while it is cache-resident,
// and sorts only the key's time bits below the top digit. Every producer
// emits its run UE after UE, each UE's events in canonical order, and the
// runs come in UE order, so among keys of one millisecond the input
// order is already the (UE, type) order. The partition is stable and so
// is an LSD radix sort, so sorting the time bits alone leaves the whole
// key in order: the UE and type bits are never sorted. For 400 K UEs
// over an hour (8 M keys in 512 buckets) that is one pass over 13 bits
// where the whole key took three over 36. The decode into the bucket's
// final slots then checks, one compare a key, that every key is at least
// the one before; a bucket whose producers broke the premise is sorted
// again on all its low bits and decoded again. No pass moves a 16-byte
// event and nothing is concatenated.
//
// Where the regions live depends on the runs. A lone run with room for 2n
// keys is assembled in place: stage one scatters its keys [0,n) into its
// own upper half [n,2n), and stage two copies each bucket into the
// scratch before decoding it into an event view of the whole buffer
// (eventView). Bucket b's events end at byte 16·hi, at or below 8n + 8·hi
// where bucket b+1's keys begin, so no decode reaches a key not yet
// copied. Several runs, or one short of room, are partitioned into a
// separate n-key buffer and decoded into a new event slice.

const (
	// bucketTarget is the bucket size stage one aims for. A bucket's two
	// buffers and its slice of the output are 32 B per key together:
	// 16 Ki keys keep all three (512 KiB) inside a 1 MiB L2.
	bucketTarget = 1 << 14
	// maxTopBits bounds stage one's fan-out; past it (n beyond 32 M)
	// buckets outgrow the target instead.
	maxTopBits = 11
	// maxDigitBits bounds an in-bucket digit: 8 192 int32 counters, 32
	// KiB, stay in L1.
	maxDigitBits = 13
	// smallSort is the bucket size below which clearing and summing the
	// pass histograms costs more than comparison-sorting the keys.
	smallSort = 256
)

// assembleKeys sorts the keys of every run and returns the events they
// decode to, in canonical order, and how many buckets it sorted twice.
// The runs are taken in order, and the sort is fastest when that order is
// UE-major (see above); any order gives the same events. It reports
// false, touching nothing, when some run was given an event outside l's
// bounds: the caller must order its events another way. Otherwise the
// runs are consumed. A lone run whose
// capacity holds twice its keys (KeyRun.forecast reserves that) becomes
// the events' storage, so nothing n-sized is allocated; otherwise the
// runs are emptied once their keys are partitioned into a separate
// buffer, before the event slice is allocated, so the collector can
// reclaim them first.
func assembleKeys(l *KeyLayout, runs []KeyRun) (evs []Event, resorted int, ok bool) {
	n := 0
	for i := range runs {
		if runs[i].outside {
			return nil, 0, false
		}
		n += len(runs[i].keys)
	}
	if len(runs) == 1 && n > 0 && cap(runs[0].keys) >= 2*n {
		buf := runs[0].keys[:2*n]
		bounds, lowBits := partitionKeys(l, runs, buf[n:])
		clear(runs)
		evs = eventView(buf)
		return evs, finishBuckets(l, buf[n:], bounds, lowBits, evs, true), true
	}
	part := make([]uint64, n)
	bounds, lowBits := partitionKeys(l, runs, part)
	clear(runs)
	evs = make([]Event, n)
	return evs, finishBuckets(l, part, bounds, lowBits, evs, false), true
}

// eventView is buf's memory as len(buf)/2 events, the one unsafe
// conversion outside tests. Event is two 8-byte words without pointers
// (TestEventIs16Bytes and TestEventLayout pin its size, alignment and
// pointer-freedom), so an even-length []uint64 has exactly a []Event's
// layout, and the collector, which allocated buf as pointer-free, need
// not scan either.
func eventView(buf []uint64) []Event {
	return unsafe.Slice((*Event)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf)/2)
}

// partitionKeys is stage one: it scatters the keys of all runs into part,
// which holds exactly that many, grouped by top digit in the runs' order,
// and returns the bucket boundaries (bucket b is part[bounds[b]:bounds[b+1]])
// and how many low bits of the key the digit left unsorted.
func partitionKeys(l *KeyLayout, runs []KeyRun, part []uint64) (bounds []int, lowBits uint) {
	n := len(part)
	topBits := min(uint(bits.Len(uint(n/bucketTarget))), maxTopBits, l.bits)
	shift := l.bits - topBits
	nb := int(l.maxKey()>>shift) + 1
	bounds = make([]int, nb+1)
	for i := range runs {
		for _, k := range runs[i].keys {
			bounds[k>>shift+1]++
		}
	}
	for b := 0; b < nb; b++ {
		bounds[b+1] += bounds[b]
	}
	next := slices.Clone(bounds[:nb])
	for i := range runs {
		scatterKeys(part, next, runs[i].keys, shift)
	}
	return bounds, shift
}

// scatterKeys appends each key of src to its top-digit bucket in dst.
//
//cplint:hotpath stage one's only write sweep: one store per key
func scatterKeys(dst []uint64, next []int, src []uint64, shift uint) {
	for _, k := range src {
		b := k >> shift
		dst[next[b]] = k
		next[b]++
	}
}

// finishBuckets is stage two: it sorts each bucket of part on the time
// bits among its lowBits low bits, decodes it into the same range of dst,
// and sorts and decodes again, on all lowBits, a bucket the decode finds
// out of order; it returns how many it sorted twice. When dst's memory
// overlaps part's (staged), each bucket is first copied out, so its
// decode may overwrite its own keys.
func finishBuckets(l *KeyLayout, part []uint64, bounds []int, lowBits uint, dst []Event, staged bool) (resorted int) {
	nb := len(bounds) - 1
	largest := 0
	for b := 0; b < nb; b++ {
		largest = max(largest, bounds[b+1]-bounds[b])
	}
	if largest == 0 {
		return 0
	}
	// Every bucket sorts the same bits, so the schedules are chosen once:
	// the time bits below the top digit, and all of them for a second sort.
	timeBits := newRadixPlan(largest, min(l.tShift, lowBits), lowBits)
	allBits := newRadixPlan(largest, 0, lowBits)
	scratch := make([]uint64, largest)
	var stage []uint64
	if staged {
		stage = make([]uint64, largest)
	}
	hist := timeBits.grow(nil)
	for b := 0; b < nb; b++ {
		lo, hi := bounds[b], bounds[b+1]
		keys := part[lo:hi]
		if staged {
			keys = stage[:hi-lo]
			copy(keys, part[lo:hi])
		}
		sorted, spare := timeBits.sort(keys, scratch[:hi-lo], hist)
		if !decodeAscending(l, sorted, dst[lo:hi]) {
			hist = allBits.grow(hist)
			sorted, _ = allBits.sort(sorted, spare, hist)
			decodeAscending(l, sorted, dst[lo:hi])
			resorted++
		}
	}
	return resorted
}

// decodeAscending unpacks keys into dst, which holds as many events, and
// reports whether every key was at least the one before it.
//
//cplint:hotpath stage two's decode: one compare, one decode and one 16-byte store per key
func decodeAscending(l *KeyLayout, keys []uint64, dst []Event) bool {
	dst = dst[:len(keys)]
	prev := uint64(0)
	for i, k := range keys {
		if k < prev {
			return false
		}
		dst[i] = l.Unpack(k)
		prev = k
	}
	return true
}

// radixPlan is an LSD schedule: passes passes of digit bits each, from
// bit lo up, which sorts keys whose bits above lo+passes·digit are equal.
type radixPlan struct {
	lo     uint
	passes int
	digit  uint
}

// newRadixPlan chooses the schedule that sorts bits [lo, hi) of buckets
// holding at most largest keys: as few passes as maxDigitBits allows, the
// bits spread evenly over them, and no digit wider than a bucket has keys
// for. No bits to sort is no pass.
func newRadixPlan(largest int, lo, hi uint) radixPlan {
	if hi <= lo {
		return radixPlan{lo: lo}
	}
	width := hi - lo
	digit := uint(min(maxDigitBits, max(bits.Len(uint(largest))-1, 4)))
	passes := (width + digit - 1) / digit
	return radixPlan{lo: lo, passes: int(passes), digit: (width + passes - 1) / passes}
}

// grow returns hist, or a larger histogram if the plan's passes<<digit
// counters do not fit it.
func (p radixPlan) grow(hist []int32) []int32 {
	if need := p.passes << p.digit; cap(hist) < need {
		return make([]int32, need)
	}
	return hist
}

// sort is the one radix kernel: it sorts keys on the plan's bits, stably,
// ping-ponging between keys and scratch, and returns which of the two
// holds them sorted and which is free. A bucket small enough to
// comparison-sort is sorted on the whole key instead, which orders the
// plan's bits as well. hist holds the plan's counters (grow).
//
//cplint:hotpath stage two and the window sort: every in-cache pass over every key
func (p radixPlan) sort(keys, scratch []uint64, hist []int32) (sorted, spare []uint64) {
	if p.passes == 0 {
		return keys, scratch
	}
	if len(keys) < smallSort || len(keys) > math.MaxInt32 { // int32 counters
		slices.Sort(keys)
		return keys, scratch
	}
	digit, mask := p.digit, uint64(1)<<p.digit-1
	hist = hist[:p.passes<<digit]
	clear(hist)
	if p.passes == 1 { // the count without its pass loop: 5 % of the kernel on 8 M keys
		for _, k := range keys {
			hist[k>>p.lo&mask]++
		}
	} else {
		for _, k := range keys {
			for i := 0; i < p.passes; i++ {
				hist[uint64(i)<<digit|k>>(p.lo+uint(i)*digit)&mask]++
			}
		}
	}
	for i := 0; i < p.passes; i++ {
		h := hist[i<<digit : (i+1)<<digit]
		sum := int32(0)
		for d, c := range h {
			h[d] = sum
			sum += c
		}
		shift := p.lo + uint(i)*digit
		for _, k := range keys {
			d := k >> shift & mask
			scratch[h[d]] = k
			h[d]++
		}
		keys, scratch = scratch, keys
	}
	return keys, scratch
}

// RadixSortEvents sorts evs in place into canonical (time, UE, type)
// order, with t0 a known lower bound on every timestamp (pass 0 when
// unknown — correct, just wider keys). It packs evs under the exact
// layout one sweep finds, runs assembleKeys' two stages and decodes back
// into evs. Like assembleKeys it sorts the time bits alone and checks the
// order as it decodes, so it is fastest on events laid out UE after UE,
// each UE's in canonical order (bench/ replays it on such a layout), and
// sorts a bucket a second time, on the whole key, wherever the input
// breaks that order. It reports whether the key fit in 64 bits; on false
// evs is left untouched and the caller must sort another way. A timestamp
// below t0, or a type beyond the key's type field, also reports false.
//
// No production caller: radix_test.go holds the kernel to a comparison
// sort through it and bench/gen.go replays it for trace.radix.*; it goes
// behind the test boundary with merge.go when bench/ stops importing it.
func RadixSortEvents(evs []Event, t0 cp.Millis) bool {
	if len(evs) < 2 {
		return true
	}
	tMax, ueMax := evs[0].T, evs[0].UE
	for i := range evs {
		tMax = max(tMax, evs[i].T)
		ueMax = max(ueMax, evs[i].UE)
	}
	l, ok := NewKeyLayout(t0, tMax, ueMax)
	if !ok {
		return false
	}
	run := KeyRun{keys: make([]uint64, 0, len(evs))}
	run.Append(&l, evs...)
	if run.outside {
		return false
	}
	part := make([]uint64, len(evs))
	bounds, lowBits := partitionKeys(&l, []KeyRun{run}, part)
	finishBuckets(&l, part, bounds, lowBits, evs, false)
	return true
}
