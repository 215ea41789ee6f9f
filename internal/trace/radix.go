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
// Stage two finishes each bucket on its own while it is cache-resident:
// an LSD radix sort over all the remaining low bits, ping-ponging between
// bucket-sized buffers, whose last pass decodes each key straight into
// its final slot of the event slice. No pass moves a 16-byte event and
// nothing is concatenated.
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
	// maxDigitBits bounds an in-bucket digit: 4 096 int32 counters per
	// pass stay in L1.
	maxDigitBits = 12
	// smallSort is the bucket size below which clearing and summing the
	// pass histograms costs more than comparison-sorting the keys.
	smallSort = 256
)

// assembleKeys sorts the keys of every run and returns the events they
// decode to, in canonical order. It reports false, touching nothing, when
// some run was given an event outside l's bounds: the caller must order
// its events another way. Otherwise the runs are consumed. A lone run
// whose capacity holds twice its keys (KeyRun.forecast reserves that)
// becomes the events' storage, so nothing n-sized is allocated; otherwise
// the runs are emptied once their keys are partitioned into a separate
// buffer, before the event slice is allocated, so the collector can
// reclaim them first.
func assembleKeys(l *KeyLayout, runs []KeyRun) ([]Event, bool) {
	n := 0
	for i := range runs {
		if runs[i].outside {
			return nil, false
		}
		n += len(runs[i].keys)
	}
	if len(runs) == 1 && n > 0 && cap(runs[0].keys) >= 2*n {
		buf := runs[0].keys[:2*n]
		bounds, lowBits := partitionKeys(l, runs, buf[n:])
		clear(runs)
		evs := eventView(buf)
		finishBuckets(l, buf[n:], bounds, lowBits, evs, true)
		return evs, true
	}
	part := make([]uint64, n)
	bounds, lowBits := partitionKeys(l, runs, part)
	clear(runs)
	evs := make([]Event, n)
	finishBuckets(l, part, bounds, lowBits, evs, false)
	return evs, true
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
// which holds exactly that many, grouped by top digit, and returns the
// bucket boundaries (bucket b is part[bounds[b]:bounds[b+1]]) and how
// many low bits of the key the digit left unsorted.
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

// finishBuckets is stage two: it sorts each bucket of part on its lowBits
// low bits and decodes it into the same range of dst. When dst's memory
// overlaps part's (staged), each bucket is first copied out, so its
// decode may overwrite its own keys.
func finishBuckets(l *KeyLayout, part []uint64, bounds []int, lowBits uint, dst []Event, staged bool) {
	nb := len(bounds) - 1
	largest := 0
	for b := 0; b < nb; b++ {
		largest = max(largest, bounds[b+1]-bounds[b])
	}
	if largest == 0 {
		return
	}
	// Every bucket sorts the same low bits, so the schedule is chosen once.
	passes, digit := passPlan(largest, lowBits)
	scratch := make([]uint64, largest)
	var stage []uint64
	if staged {
		stage = make([]uint64, largest)
	}
	hist := make([]int32, passes<<digit)
	for b := 0; b < nb; b++ {
		lo, hi := bounds[b], bounds[b+1]
		keys := part[lo:hi]
		if staged {
			keys = stage[:hi-lo]
			copy(keys, part[lo:hi])
		}
		sortBucket(l, keys, scratch[:hi-lo], dst[lo:hi], hist, passes, digit)
	}
}

// passPlan chooses the LSD schedule that sorts lowBits low bits of buckets
// holding at most largest keys: as few passes as maxDigitBits allows, the
// bits spread evenly over them, and no digit wider than a bucket has keys
// for. A pass histogram set is passes<<digit counters.
func passPlan(largest int, lowBits uint) (passes int, digit uint) {
	digit = uint(min(maxDigitBits, max(bits.Len(uint(largest))-2, 4)))
	passes = max(int((lowBits+digit-1)/digit), 1)
	return passes, max((lowBits+uint(passes)-1)/uint(passes), 1)
}

// sortPasses is the one radix kernel: it sorts keys by their low
// passes×digit bits — the bits above are equal across a bucket — except
// that it leaves the last pass's scatter to the caller, which decodes
// while it stores. It returns the keys as that pass must read them, the
// pass's running bucket offsets and its shift; nil offsets mean src is
// already in order (a bucket small enough to comparison-sort). keys and
// scratch are left in an unspecified state.
//
//cplint:hotpath stage two and the window sort: every in-cache pass over every key
func sortPasses(keys, scratch []uint64, hist []int32, passes int, digit uint) (src []uint64, offs []int32, shift uint) {
	if len(keys) < smallSort || len(keys) > math.MaxInt32 { // int32 counters
		slices.Sort(keys)
		return keys, nil, 0
	}
	mask := uint64(1)<<digit - 1
	clear(hist)
	for _, k := range keys {
		for p := 0; p < passes; p++ {
			hist[uint64(p)<<digit|k>>(uint(p)*digit)&mask]++
		}
	}
	for p := 0; ; p++ {
		h := hist[p<<digit : (p+1)<<digit]
		sum := int32(0)
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		shift = uint(p) * digit
		if p == passes-1 {
			return keys, h, shift
		}
		for _, k := range keys {
			d := k >> shift & mask
			scratch[h[d]] = k
			h[d]++
		}
		keys, scratch = scratch, keys
	}
}

// sortBucket sorts keys (sortPasses) and decodes them into dst in order.
//
//cplint:hotpath stage two's last pass: one decode and one 16-byte store per key
func sortBucket(l *KeyLayout, keys, scratch []uint64, dst []Event, hist []int32, passes int, digit uint) {
	src, offs, shift := sortPasses(keys, scratch, hist, passes, digit)
	if offs == nil {
		for i, k := range src {
			dst[i] = l.Unpack(k)
		}
		return
	}
	mask := uint64(1)<<digit - 1
	for _, k := range src {
		d := k >> shift & mask
		dst[offs[d]] = l.Unpack(k)
		offs[d]++
	}
}

// RadixSortEvents sorts evs in place into canonical (time, UE, type)
// order, with t0 a known lower bound on every timestamp (pass 0 when
// unknown — correct, just wider keys). It packs evs under the exact
// layout one sweep finds, runs assembleKeys' two stages and decodes back
// into evs. It reports whether the key fit in 64 bits; on false evs is
// left untouched and the caller must sort another way. A timestamp below
// t0, or a type beyond the key's type field, also reports false.
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
