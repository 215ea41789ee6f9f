package trace

// The k-way loser-tree merge, kept for two callers and neither of them
// production: window_test.go holds assembleWindows to it (a different
// algorithm over the same streams), and bench/gen.go replays it for the
// trace.merge.* layer metrics. Both generator-backed sources order by time
// window (window.go) and Generate by packed key (radix.go). When bench/
// stops importing MergeBatches, SliceIterator and BatchIterator, this file
// moves behind the test boundary as merge_test.go.

// BatchIterator yields one stream's events in time order a run at a time,
// pull-style, so MergeBatches makes one method call per run instead of
// per event.
type BatchIterator interface {
	// NextRun fills dst from the front with the stream's next events,
	// returning how many were written; 0 means the stream is exhausted
	// (dst is assumed non-empty).
	NextRun(dst []Event) int
}

// SliceIterator replays an already-materialized, already-ordered event
// slice a run at a time: the BatchIterator the window oracle and the
// benchmark replay feed MergeBatches with. The zero value is an empty
// stream; callers bulk-allocate []SliceIterator and pass pointers.
type SliceIterator struct{ Events []Event }

// NextRun implements BatchIterator by copying the next chunk of the
// slice.
func (s *SliceIterator) NextRun(dst []Event) int {
	n := copy(dst, s.Events)
	s.Events = s.Events[n:]
	return n
}

// mergeRunSize is the per-leaf refill granularity of MergeBatches: long
// enough to amortize the NextRun call, short enough that k leaves' run
// buffers (k × 64 × 16 B, one slab) stay cache-resident for populations in
// the thousands.
const mergeRunSize = 64

// MergeBatches k-way merges the iterators — each individually ordered
// under Event.Before — into canonically ordered batches delivered to fn,
// whose first error aborts the merge and is returned. Each leaf holds a
// run of up to mergeRunSize pending events (refilled by one NextRun call
// when drained) and output accumulates into a reused DefaultBatchSize
// batch, so both edges of the merge make one call per run/batch rather
// than per event.
//
// The merge is a loser tree rather than container/heap: advancing the
// winner costs exactly ⌈log₂ k⌉ comparisons and only index writes (a
// binary heap pays ~2 comparisons per level and swaps whole items), and
// nothing goes through an interface per sift step. Before is a total
// order on distinct events (time, UE, type), so the output sequence is
// uniquely determined by the comparator, regardless of run or batch
// boundaries, and any correct merge or sort yields identical bytes; should
// two iterators ever carry the very same event, the lower iterator index
// wins, deterministically. The *Batch passed to fn is reused; fn must not
// retain it.
func MergeBatches(fn func(*Batch) error, its []BatchIterator) error {
	// One shared slab backs every leaf's run buffer: k small buffers in
	// one allocation, carved into fixed strides.
	slab := make([]Event, len(its)*mergeRunSize)
	runs := make([][]Event, 0, len(its)) // filled prefix of each leaf's stride
	cur := make([]int, 0, len(its))      // index of each leaf's head within its run
	evs := make([]Event, 0, len(its))    // each leaf's head event (the comparator's view)
	act := make([]BatchIterator, 0, len(its))
	for i, it := range its {
		buf := slab[i*mergeRunSize : (i+1)*mergeRunSize]
		if n := it.NextRun(buf); n > 0 {
			runs = append(runs, buf[:n])
			cur = append(cur, 0)
			evs = append(evs, buf[0])
			act = append(act, it)
		}
	}
	k := len(act)
	if k == 0 {
		return nil
	}
	dead := make([]bool, k)
	// Complete-tree embedding: internal nodes 1..k-1, leaf i at node k+i;
	// tree[n] is the loser at node n and tree[0] the overall winner.
	tree := make([]int32, k)
	win := make([]int32, 2*k)
	for i := 0; i < k; i++ {
		win[k+i] = int32(i)
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if leafBeats(a, b, evs, dead) {
			win[n], tree[n] = a, b
		} else {
			win[n], tree[n] = b, a
		}
	}
	tree[0] = win[1]
	out := NewBatch(DefaultBatchSize)
	for alive := k; alive > 0; {
		w := tree[0]
		out.Append(evs[w])
		if out.Len() == out.Cap() {
			if err := fn(out); err != nil {
				return err
			}
			out.Reset()
		}
		if next := cur[w] + 1; next < len(runs[w]) {
			cur[w] = next
			evs[w] = runs[w][next]
		} else if n := act[w].NextRun(runs[w][:mergeRunSize]); n > 0 {
			runs[w] = runs[w][:n]
			cur[w] = 0
			evs[w] = runs[w][0]
		} else {
			dead[w] = true
			alive--
			if alive == 0 {
				break
			}
		}
		tree[0] = sift(w, k, tree, evs, dead)
	}
	if out.Len() > 0 {
		return fn(out)
	}
	return nil
}

// leafBeats reports whether leaf a's pending event orders before leaf
// b's; exhausted leaves always lose so the tree drains without
// shrinking, and ties break toward the lower iterator index.
//
//cplint:hotpath ⌈log₂k⌉ calls per merged event, inlined into the sift
func leafBeats(a, b int32, evs []Event, dead []bool) bool {
	if dead[a] || dead[b] {
		return !dead[a] && dead[b]
	}
	if evs[a].Before(evs[b]) {
		return true
	}
	if evs[b].Before(evs[a]) {
		return false
	}
	return a < b
}

// sift replays the path from leaf w to the root after the leaf's
// pending event changed: whoever loses parks at the node, the winner
// plays on. It returns the new overall winner.
//
//cplint:hotpath the loser-tree sift: runs once per merged event, index writes only
func sift(w int32, k int, tree []int32, evs []Event, dead []bool) int32 {
	for n := (int(w) + k) / 2; n > 0; n /= 2 {
		if leafBeats(tree[n], w, evs, dead) {
			w, tree[n] = tree[n], w
		}
	}
	return w
}
