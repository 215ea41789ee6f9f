package core

import (
	"math"
	"slices"
	"unsafe"

	"cptraffic/internal/stats"
)

// sample is the element of Build's sample lists: a logged value's whole
// milliseconds, the log's uvarint read as seconds reads it. A device's
// lists are uint32 when every one of its values lies in [0, 2^32) — 4 B a
// sample — and int64 otherwise: a sojourn of 49.7 days or more, or the
// negative one an out-of-order source gives.
//
// Every float the fit derives from a list comes from the same operations
// on the same operands as a fit over the lists' seconds images: seconds
// is non-decreasing, so a list sorted as integers is sorted as images,
// and where the float kernels test values for equality (fitSojourn's
// all-equal check, Kaplan–Meier's tie groups and risk set) the kernels
// below compare images, converting with secs what they read.
type sample interface{ uint32 | int64 }

// secs is a list element as a sample: the bits seconds gives its log
// value.
func secs[T sample](v T) float64 { return seconds(uint64(v)) }

// fitScratch is one goroutine's reusable buffers for fitting sample
// lists: the radix sort's ping-pong buffer, and the seconds images the
// exponential fits fold.
type fitScratch[T sample] struct {
	sort []T
	secs []float64
}

// images returns the seconds images of lists' values, concatenated in
// order, in the scratch's float buffer.
func (sc *fitScratch[T]) images(lists ...[]T) []float64 {
	out := sc.secs[:0]
	for _, l := range lists {
		for _, v := range l {
			out = append(out, secs(v))
		}
	}
	sc.secs = out
	return out
}

// censoredExp is stats.CensoredExpMLE over the seconds images of the
// concatenated fired lists and of the censored list.
func censoredExp[T sample](fired [][]T, censored []T, sc *fitScratch[T]) (lambda float64, ok bool) {
	all := sc.images(append(fired[:len(fired):len(fired)], censored)...)
	nf := len(all) - len(censored)
	return stats.CensoredExpMLE(all[:nf], all[nf:])
}

// millisRadixCutoff is the length below which sortMillis is slices.Sort:
// a radix sort pays for clearing and summing its 256-bucket histograms
// whatever the length.
const millisRadixCutoff = 64

// radixKey orders a sample as an unsigned integer: its two's-complement
// bits with the sign bit flipped, so negatives come first. A uint32's key
// bytes above its fourth never vary and are never read.
func radixKey[T sample](v T) uint64 { return uint64(int64(v)) ^ 1<<63 }

// sortMillis sorts xs ascending. Equal samples are equal integers, so the
// sorted sequence is unique, and its images are what slices.Sort leaves
// of the images. One sweep builds a histogram of each key byte
// and finds the already-sorted case; an LSD radix sort then orders the
// key one byte per pass, low byte first, skipping a byte every key
// shares. *scratch is the ping-pong buffer, grown as needed and reusable
// across calls.
func sortMillis[T sample](xs []T, scratch *[]T) {
	n := len(xs)
	if n < millisRadixCutoff || uint64(n) > math.MaxUint32 { // uint32 counters
		slices.Sort(xs)
		return
	}
	width := int(unsafe.Sizeof(xs[0]))
	var hist [8][256]uint32
	sorted, prev := true, radixKey(xs[0])
	for _, x := range xs {
		k := radixKey(x)
		sorted = sorted && prev <= k
		prev = k
		hist[0][k&0xff]++
		hist[1][k>>8&0xff]++
		hist[2][k>>16&0xff]++
		hist[3][k>>24&0xff]++
		if width == 8 {
			hist[4][k>>32&0xff]++
			hist[5][k>>40&0xff]++
			hist[6][k>>48&0xff]++
			hist[7][k>>56]++
		}
	}
	if sorted {
		return
	}
	if cap(*scratch) < n {
		*scratch = make([]T, n)
	}
	src, dst := xs, (*scratch)[:n]
	for p := range width {
		h, shift := &hist[p], uint(8*p)
		if h[prev>>shift&0xff] == uint32(n) {
			continue // every key has this byte
		}
		sum := uint32(0)
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		scatterMillis(dst, src, h, shift)
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// scatterMillis is one radix pass: it appends each value of src to the
// bucket of dst its key byte at shift names; next holds the buckets'
// running offsets.
//
//cplint:hotpath every pass over every sample: one load, one store and one counter per value
func scatterMillis[T sample](dst, src []T, next *[256]uint32, shift uint) {
	for _, x := range src {
		b := radixKey(x) >> shift & 0xff
		dst[next[b]] = x
		next[b]++
	}
}

// mergeMillis returns the values of lists, each ascending, in ascending
// order: the order sortMillis gives their concatenation. The result is a
// new slice, except that a single non-empty list is returned as it is.
// It consumes the lists slice, not the values.
func mergeMillis[T sample](lists [][]T) []T {
	n := 0
	heads := lists[:0]
	for _, l := range lists {
		if len(l) > 0 {
			n += len(l)
			heads = append(heads, l)
		}
	}
	switch len(heads) {
	case 0:
		return nil
	case 1:
		return heads[0]
	}
	out := make([]T, 0, n)
	// Each round moves the run of the list with the smallest head that
	// does not pass the second-smallest head.
	for len(heads) > 1 {
		best, bound := 0, heads[1][0]
		if bound < heads[0][0] {
			best, bound = 1, heads[0][0]
		}
		for i := 2; i < len(heads); i++ {
			switch x := heads[i][0]; {
			case x < heads[best][0]:
				best, bound = i, heads[best][0]
			case x < bound:
				bound = x
			}
		}
		l := heads[best]
		m := 1
		for m < len(l) && l[m] <= bound {
			m++
		}
		out = append(out, l[:m]...)
		if m < len(l) {
			heads[best] = l[m:]
		} else {
			heads[best] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	return append(out, heads[0]...)
}

// kmWalk steps the Kaplan–Meier estimator through the distinct event
// times of ascending fired (f) and censored (c) lists: at time t,
// everything fired before t and everything censored strictly before t
// has left the risk set — a unit censored at t was still at risk at t,
// the standard convention.
//
// It compares images, not integers. seconds is injective only below
// 1000·2^43 ms (≈ 279 years): above, one float's ulp exceeds a
// millisecond and neighbouring integers share an image. Ties and the
// c < t rule on images are the float kernel's groups for every input.
type kmWalk[T sample] struct {
	f, c   []T
	fi, ci int
	s      float64 // survival S(t) after the last step
}

// more reports whether another event time is left.
func (w *kmWalk[T]) more() bool { return w.fi < len(w.f) }

// step moves to the next event time and returns it with the cumulative
// incidence 1 - S(t).
func (w *kmWalk[T]) step() (t, inc float64) {
	t = secs(w.f[w.fi])
	for w.ci < len(w.c) && secs(w.c[w.ci]) < t {
		w.ci++
	}
	atRisk := len(w.f) + len(w.c) - w.fi - w.ci
	d := 1 // events at t
	for w.fi+d < len(w.f) && secs(w.f[w.fi+d]) == t {
		d++
	}
	w.fi += d
	w.s *= 1 - float64(d)/float64(atRisk)
	return t, 1 - w.s
}

// kaplanMeier estimates the marginal distribution of an event time from
// right-censored observations — the sub-machine sojourns, which every
// top-level state change censors — given the fired (f) and censored (c)
// delays, each list ascending. It returns the conditional-given-finite
// quantile grid, the residual tail mass (the survival beyond the last
// event time: the probability the event never fires within observable
// horizons), and ok=false when nothing fired. The grid always has
// stats.DefaultQuantilePoints points: KM steps carry unequal masses, and
// a coarser grid would misplace them.
//
// It walks the lists twice — once for the tail, once inverting
// F(t)/(1-tail) over the grid — instead of holding every step: the
// second walk repeats the first's float operations, so its steps are
// the same bits.
func kaplanMeier[T sample](f, c []T) (q []float64, tail float64, ok bool) {
	if len(f) == 0 {
		return nil, 1, false
	}
	w := kmWalk[T]{f: f, c: c, s: 1}
	for w.more() {
		w.step()
	}
	tail = w.s
	fMax := 1 - tail
	if fMax <= 0 {
		return nil, 1, false
	}
	q = make([]float64, stats.DefaultQuantilePoints)
	w = kmWalk[T]{f: f, c: c, s: 1}
	t, inc := w.step()
	first := t
	for k := range q {
		p := float64(k) / float64(stats.DefaultQuantilePoints-1) * fMax
		for w.more() && inc < p {
			t, inc = w.step()
		}
		q[k] = t
	}
	for w.more() {
		t, _ = w.step()
	}
	// Exact lower and upper endpoints.
	q[0], q[stats.DefaultQuantilePoints-1] = first, t
	return q, tail, true
}

// quantileGrid is the quantile table of an ascending list on n even
// probabilities (n >= 2): Empirical.Quantile's type-7 interpolation over
// the images, converting only the two order statistics each point lies
// between.
func quantileGrid[T sample](sorted []T, n int) []float64 {
	q := make([]float64, n)
	last := len(sorted) - 1
	for i := range q {
		p := float64(i) / float64(n-1)
		switch {
		case p <= 0:
			q[i] = secs(sorted[0])
		case p >= 1:
			q[i] = secs(sorted[last])
		default:
			h := p * float64(last)
			j := int(h)
			frac := h - float64(j)
			if j+1 > last {
				q[i] = secs(sorted[last])
				continue
			}
			lo := secs(sorted[j])
			q[i] = lo + frac*(secs(sorted[j+1])-lo)
		}
	}
	return q
}
