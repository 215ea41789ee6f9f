package stats

import (
	"math"
	"slices"
)

// floatRadixCutoff is the length below which SortFloats is slices.Sort:
// a radix sort pays for clearing and summing its 256-bucket histograms
// whatever the length.
const floatRadixCutoff = 64

// infBits is +Inf's bit pattern, the largest key whose order as an
// unsigned integer is its order as a float64: every pattern above it has
// the sign bit set (a negative, or -0) or is a NaN.
const infBits = 0x7ff << 52

// radixBytes is how many of the key's high bytes the radix passes order:
// sign, exponent and the top 20 mantissa bits. Duration samples are whole
// milliseconds, so distinct ones agree in those only above 2048 s: what
// the passes leave sortCloseRuns is ties and a few runs of two, while four
// more passes over the low bytes would cost every sample as much again
// (the fit_stream benchmark reads 11 % slower with them).
const radixBytes = 4

// lowBits is how many key bits lie below the radix-sorted bytes.
const lowBits = 64 - 8*radixBytes

// SortFloats sorts xs ascending and leaves exactly what slices.Sort
// leaves, bit for bit, for every input. Non-negative, NaN-free input —
// what duration samples are — is ordered by IEEE-754 bit pattern: there
// key order is value order and equal values are equal bits, so the sorted
// sequence is unique and any correct sort produces it. One sweep builds
// the histograms of the key's radixBytes high bytes, finds the
// already-sorted case, and hands the untouched input to slices.Sort the
// moment it meets a key above infBits, for which none of that holds. An
// LSD radix sort, one byte per pass and no pass over a byte that never
// varies, then orders the high bytes, and sortCloseRuns the rest.
// *scratch is the ping-pong buffer, grown as needed and reusable across
// calls.
func SortFloats(xs []float64, scratch *[]float64) {
	n := len(xs)
	if n < floatRadixCutoff || uint64(n) > math.MaxUint32 { // uint32 counters
		slices.Sort(xs)
		return
	}
	var hist [radixBytes][256]uint32
	sorted, prev := true, uint64(0)
	for _, x := range xs {
		k := math.Float64bits(x)
		if k > infBits {
			slices.Sort(xs)
			return
		}
		sorted = sorted && prev <= k
		prev = k
		hist[0][k>>lowBits&0xff]++
		hist[1][k>>(lowBits+8)&0xff]++
		hist[2][k>>(lowBits+16)&0xff]++
		hist[3][k>>(lowBits+24)&0xff]++
	}
	if sorted {
		return
	}
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	src, dst := xs, (*scratch)[:n]
	for p := range hist {
		h, shift := &hist[p], lowBits+8*uint(p)
		if h[prev>>shift&0xff] == uint32(n) {
			continue // every key has this byte
		}
		sum := uint32(0)
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		scatterFloats(dst, src, h, shift)
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	sortCloseRuns(xs)
}

// sortCloseRuns finishes a slice whose keys ascend in their radixBytes
// high bytes: a descent can only be inside a run of keys that agree in
// them, which the stable passes left in input order, so each such run
// goes to slices.Sort. Runs already in order — every run of equal
// values — cost the one comparison per value.
func sortCloseRuns(xs []float64) {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] <= xs[i] {
			continue
		}
		high := math.Float64bits(xs[i]) >> lowBits
		lo, hi := i-1, i+1
		for lo > 0 && math.Float64bits(xs[lo-1])>>lowBits == high {
			lo--
		}
		for hi < len(xs) && math.Float64bits(xs[hi])>>lowBits == high {
			hi++
		}
		slices.Sort(xs[lo:hi])
		i = hi - 1
	}
}

// scatterFloats is one radix pass: it appends each value of src to the
// bucket of dst its key byte at shift names; next holds the buckets'
// running offsets.
//
//cplint:hotpath every pass over every sample: one load, one store and one counter per value
func scatterFloats(dst, src []float64, next *[256]uint32, shift uint) {
	for _, x := range src {
		b := math.Float64bits(x) >> shift & 0xff
		dst[next[b]] = x
		next[b]++
	}
}
