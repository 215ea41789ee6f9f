package stats

import (
	"cmp"
	"math"
	"slices"
)

// Sketch is a mergeable bounded-memory quantile sketch: a bottom-k
// priority sample. Every observation carries a caller-supplied priority
// (a deterministic hash of the observation's identity — see
// SketchPriority); the sketch keeps the k observations with the
// smallest (Pri, Tag) pairs. Because "the k smallest of a set" does not
// depend on arrival order or on how the set was split across sketches,
// Add and Merge commute: feeding a stream into one sketch, or sharding
// it across many sketches and merging them in any order, yields
// byte-identical contents. With hash priorities the kept set is a
// uniform sample without replacement, so the empirical CDF of the kept
// values approximates the stream's ECDF with the DKW error bound
// returned by SketchErrorBound.
//
// The zero Sketch is not usable; construct with NewSketch or
// RestoreSketch.
type Sketch struct {
	k     int
	n     int64
	items []SketchItem // max-heap on (Pri, Tag); items[0] is the eviction candidate
}

// SketchItem is one retained observation. Pri is the sampling priority,
// Tag a caller-chosen identity that breaks priority ties and orders the
// canonical serialization, V the observed value.
type SketchItem struct {
	Pri uint64
	Tag uint64
	V   float64
}

// NewSketch returns an empty sketch retaining at most k observations.
// It panics if k < 1.
func NewSketch(k int) *Sketch {
	if k < 1 {
		panic("stats: sketch needs k >= 1")
	}
	return &Sketch{k: k}
}

// RestoreSketch rebuilds a sketch from serialized state: the bound k,
// the total observation count n, and the retained items (in any order;
// len(items) <= k and n >= len(items) are required). It panics on
// inconsistent arguments.
func RestoreSketch(k int, n int64, items []SketchItem) *Sketch {
	if k < 1 {
		panic("stats: sketch needs k >= 1")
	}
	if len(items) > k || n < int64(len(items)) {
		panic("stats: inconsistent sketch restore state")
	}
	s := &Sketch{k: k, n: n, items: append([]SketchItem(nil), items...)}
	s.heapify()
	return s
}

// itemLess orders items by (Pri, Tag) lexicographically.
func itemLess(a, b SketchItem) bool {
	if a.Pri != b.Pri {
		return a.Pri < b.Pri
	}
	return a.Tag < b.Tag
}

// Add observes one value with the given priority and tag. Ties on
// (pri, tag) are kept as duplicates; callers that need set semantics
// must supply unique tags.
func (s *Sketch) Add(pri, tag uint64, v float64) {
	s.n++
	s.insert(SketchItem{Pri: pri, Tag: tag, V: v})
}

// insert places it into the bottom-k heap without counting it.
func (s *Sketch) insert(it SketchItem) {
	if len(s.items) < s.k {
		s.items = append(s.items, it)
		s.up(len(s.items) - 1)
		return
	}
	// Full: keep only if smaller than the current maximum.
	if itemLess(it, s.items[0]) {
		s.items[0] = it
		s.down(0)
	}
}

// Merge folds other into s. Both sketches must share the same k (panic
// otherwise). The result holds the k smallest items of the union and
// the summed observation count — identical for any merge order or
// grouping. other is not modified.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	if s.k != other.k {
		panic("stats: merging sketches with different k")
	}
	s.n += other.n
	for _, it := range other.items {
		s.insert(it)
	}
}

// N returns the total number of observations, kept or not.
func (s *Sketch) N() int64 { return s.n }

// Items returns the retained observations sorted by (Pri, Tag) — the
// canonical serialization order. The slice is a copy.
func (s *Sketch) Items() []SketchItem {
	out := append([]SketchItem(nil), s.items...)
	// (Pri, Tag) ties only between items Add's contract calls duplicates;
	// the fit's tags are unique per sample, so there it never ties.
	slices.SortFunc(out, func(a, b SketchItem) int {
		return cmp.Or(cmp.Compare(a.Pri, b.Pri), cmp.Compare(a.Tag, b.Tag))
	})
	return out
}

// SketchPriority derives a sampling priority from a two-part identity
// (for the fit pipeline: a pool-key salt and a per-observation tag).
// It is a fixed, platform-independent function — the same identity
// yields the same priority in every process, which is what makes
// sharded sketches merge into the unsharded result bit-for-bit.
func SketchPriority(salt, tag uint64) uint64 {
	// Two SplitMix64 finalizer rounds over the combined identity.
	_, h := splitmix64(salt ^ rotl(tag, 31))
	_, h2 := splitmix64(h ^ tag)
	return h2
}

// sketchDelta is the confidence parameter δ of the documented error
// bound: the DKW guarantee below holds with probability 1 − δ.
const sketchDelta = 1e-4

// SketchErrorBound returns ε(k): with probability at least 1 − 1e-4,
// every quantile of a merged sketch with k retained observations is
// within ε of the exact ECDF of the full stream, by the
// Dvoretzky–Kiefer–Wolfowitz inequality for a uniform subsample:
//
//	ε = sqrt(ln(2/δ) / (2k)),  δ = 1e-4.
//
// The bound is on CDF (probability) error; tests verify it as the
// Kolmogorov–Smirnov distance between the sketch sample and the exact
// sample. Streams with n <= k observations are retained exactly (ε
// effectively 0).
func SketchErrorBound(k int) float64 {
	return math.Sqrt(math.Log(2/sketchDelta) / (2 * float64(k)))
}

// ---- internal max-heap on (Pri, Tag) ----

func (s *Sketch) heapify() {
	for i := len(s.items)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

func (s *Sketch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(s.items[parent], s.items[i]) {
			return
		}
		s.items[parent], s.items[i] = s.items[i], s.items[parent]
		i = parent
	}
}

func (s *Sketch) down(i int) {
	n := len(s.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && itemLess(s.items[big], s.items[l]) {
			big = l
		}
		if r < n && itemLess(s.items[big], s.items[r]) {
			big = r
		}
		if big == i {
			return
		}
		s.items[i], s.items[big] = s.items[big], s.items[i]
		i = big
	}
}
