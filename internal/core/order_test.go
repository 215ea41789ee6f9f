package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
)

// comparePitems is the (UE, seq) order spelled out field by field — the
// comparison-sort reference the radix sort and the merge must agree
// with.
func comparePitems(x, y pitem) int {
	return cmp.Or(cmp.Compare(x.ue, y.ue), cmp.Compare(x.seq, y.seq))
}

// randomPitems draws n samples with unique (UE, seq) identities: UE ids
// from pick, a per-UE sequence counter with random gaps (a UE's samples
// spread over many pools), arrival order shuffled. Values are distinct,
// so comparing whole items also catches a value moved to another key.
func randomPitems(r *stats.RNG, n int, pick func() cp.UEID) []pitem {
	next := make(map[cp.UEID]uint32)
	items := make([]pitem, n)
	for i := range items {
		ue := pick()
		next[ue] += uint32(1 + r.Intn(300))
		items[i] = pitem{ue: ue, seq: next[ue], v: float64(i) + 0.25}
	}
	for i := len(items) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		items[i], items[j] = items[j], items[i]
	}
	return items
}

// TestSortPitemsMatchesComparisonSort checks the radix sort against
// slices.SortFunc over the shapes the fit produces and the corners of
// the implementation: lengths straddling the comparison-sort cut-off,
// UE ids using all 32 bits, one UE (the high half of the key constant),
// sorted and reversed input, and a scratch buffer reused across calls
// of different lengths.
func TestSortPitemsMatchesComparisonSort(t *testing.T) {
	r := stats.NewRNG(5)
	smallUE := func() cp.UEID { return cp.UEID(r.Intn(500)) }
	wideUE := func() cp.UEID {
		switch r.Intn(4) {
		case 0:
			return math.MaxUint32
		case 1:
			return cp.UEID(r.Intn(3))
		default:
			return cp.UEID(r.Uint64())
		}
	}
	oneUE := func() cp.UEID { return 0x80000001 }
	var scratch []pitem
	check := func(name string, items []pitem) {
		t.Helper()
		want := slices.Clone(items)
		slices.SortFunc(want, comparePitems)
		sortPitems(items, &scratch)
		if !slices.Equal(items, want) {
			t.Fatalf("%s (n=%d): radix order differs from the comparison sort", name, len(items))
		}
	}
	sizes := []int{0, 1, 2, pitemRadixCutoff - 1, pitemRadixCutoff, pitemRadixCutoff + 1, 1000, 20000, 300}
	for _, n := range sizes {
		check("small ids", randomPitems(r, n, smallUE))
		check("32-bit ids", randomPitems(r, n, wideUE))
		check("single UE", randomPitems(r, n, oneUE))
		sorted := randomPitems(r, n, wideUE)
		slices.SortFunc(sorted, comparePitems)
		check("already sorted", slices.Clone(sorted))
		slices.Reverse(sorted)
		check("reversed", sorted)
	}
	// A seq above 2^31 and UE 0 next to UE MaxUint32: every key byte
	// varies, so all eight passes run.
	all := randomPitems(r, 4*pitemRadixCutoff, wideUE)
	all = append(all, pitem{ue: 0, seq: math.MaxUint32, v: -1}, pitem{ue: math.MaxUint32, seq: math.MaxUint32, v: -2})
	check("all bytes vary", all)
}

// TestMergePitemsRestoresOrder deals a sorted, unique-key list out into
// k lists (some empty, k up to the 24 hours Build merges) and requires
// the merge to return the original, whatever the buffer held before.
func TestMergePitemsRestoresOrder(t *testing.T) {
	r := stats.NewRNG(8)
	var buf []pitem
	for _, k := range []int{0, 1, 2, 3, 6, 24} {
		for _, n := range []int{0, 1, 50, 5000} {
			want := randomPitems(r, n, func() cp.UEID { return cp.UEID(r.Intn(40)) })
			slices.SortFunc(want, comparePitems)
			lists := make([][]pitem, k)
			for i, it := range want {
				// Runs of one UE mostly stay together, like an hour's samples.
				l := int(it.ue) % max(k, 1)
				if i%7 == 0 {
					l = r.Intn(max(k, 1))
				}
				if k > 0 {
					lists[l] = append(lists[l], it)
				}
			}
			if k == 0 {
				want = nil
			}
			got := mergePitems(&buf, lists)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d n=%d: merge differs from the sorted whole", k, n)
			}
		}
	}
}

// sojournStdsBySort is sojournStds as it was before the per-event pools
// were merged: concatenate, comparison-sort, group by UE. Kept only as
// the oracle for TestSojournStdsMatchesSort.
func sojournStdsBySort(pools map[poolKey][]pitem, h int, s cp.UEState) map[cp.UEID]float64 {
	var all []pitem
	for _, e := range cp.EventTypes {
		all = append(all, pools[poolKey{Hour: uint8(h), Kind: poolTop, A: uint8(s), B: uint8(e)}]...)
	}
	slices.SortFunc(all, comparePitems)
	out := make(map[cp.UEID]float64)
	for i := 0; i < len(all); {
		j := ueRunEnd(all, i)
		vs := make([]float64, 0, j-i)
		for _, it := range all[i:j] {
			vs = append(vs, it.v)
		}
		out[all[i].ue] = stats.StdDev(vs)
		i = j
	}
	return out
}

// TestSojournStdsMatchesSort compares the merged, index-addressed
// clustering features with the sort-and-map reference bit for bit,
// including UEs that have no sample (0 in both).
func TestSojournStdsMatchesSort(t *testing.T) {
	r := stats.NewRNG(13)
	ues := []cp.UEID{2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1 << 31}
	const h = 7
	pools := make(map[poolKey][]pitem)
	for _, s := range []cp.UEState{cp.StateConnected, cp.StateIdle} {
		items := randomPitems(r, 600, func() cp.UEID { return ues[1+r.Intn(len(ues)-2)] })
		for _, it := range items {
			it.v = r.Lognormal(2, 1)
			k := poolKey{Hour: h, Kind: poolTop, A: uint8(s), B: uint8(cp.EventTypes[r.Intn(len(cp.EventTypes))])}
			pools[k] = append(pools[k], it)
		}
	}
	var scratch []pitem
	lay := newLayout(sm.LTE2Level().NumStates())
	table := make([][]pitem, lay.poolTableLen())
	for k := range pools {
		sortPitems(pools[k], &scratch)
		table[lay.poolIndex(k)] = pools[k]
	}
	for _, s := range []cp.UEState{cp.StateConnected, cp.StateIdle, cp.StateDeregistered} {
		want := sojournStdsBySort(pools, h, s)
		got := sojournStds(&lay, ues, table, h, s, &scratch)
		for i, ue := range ues {
			if math.Float64bits(got[i]) != math.Float64bits(want[ue]) {
				t.Fatalf("state %v UE %d: std %v, reference %v", s, ue, got[i], want[ue])
			}
		}
	}
}
