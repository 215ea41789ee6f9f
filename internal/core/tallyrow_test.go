package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// denseRow is the form a tally row had before rows went sparse: one
// uint32 per slot, a zero a count never taken. Its slots are placed from
// the layout's shapes by this file's own arithmetic, so a fault in
// layout.slot or layout.key shows up as a difference from it.
type denseRow []uint32

func denseSlot(l *layout, kind, a, b uint8) int {
	off := 0
	for k := uint8(0); k < kind; k++ {
		off += l.shape[k].na * l.shape[k].nb
	}
	sh := l.shape[kind]
	return off + int(a)*sh.nb + int(b) - sh.b0
}

// each calls fn on every nonzero count of the row, in slot order.
func (r denseRow) each(l *layout, fn func(kind, a, b uint8, n uint32)) {
	i := 0
	for kind := uint8(0); kind < numCntKinds; kind++ {
		sh := l.shape[kind]
		for j := 0; j < sh.na*sh.nb; j, i = j+1, i+1 {
			if r[i] > 0 {
				fn(kind, uint8(j/sh.nb), uint8(sh.b0+j%sh.nb), r[i])
			}
		}
	}
}

// apply is applyRow over a dense row.
func (r denseRow) apply(l *layout, ac *accCounts) {
	r.each(l, func(kind, a, b uint8, n uint32) {
		switch kind {
		case cntTop:
			ac.TopCount[topKey{S: cp.UEState(a), E: cp.EventType(b)}] += int(n)
		case cntBot:
			ac.BotCount[botKey{S: sm.State(a), E: cp.EventType(b)}] += int(n)
		case cntFirst:
			ac.FirstCnt[firstCatKey{E: cp.EventType(a), S: sm.State(b)}] += int(n)
		case cntWithEv:
			ac.WithEv += int(n)
		}
	})
}

// encodeDense is encodeCounts over one UE's dense rows.
func encodeDense(l *layout, c *partialCounts, ue cp.UEID, rows *[HoursPerDay]denseRow) {
	for kind := uint8(0); kind < numCntKinds; kind++ {
		for h, row := range rows {
			if row == nil {
				continue
			}
			row.each(l, func(k, a, b uint8, n uint32) {
				if k == kind {
					c.UE = append(c.UE, ue)
					c.Key = append(c.Key, cntKey(kind, uint8(h), a, b))
					c.N = append(c.N, int64(n))
				}
			})
		}
	}
}

// TestTallyRowMatchesDense feeds the same random tallies to a UE's sparse
// rows and to dense rows, on three machines' layouts. Each hour draws
// from its own set of picked slots — none, a few, or as many picks as
// there are slots — so rows range from absent through sparse to nearly
// full. Every sparse row must be strictly ascending with no zero entry,
// and hold exactly the dense row's counts; applyRow must fill the
// accumulators the dense rows fill, and encodeCounts write the columns
// they write.
func TestTallyRowMatchesDense(t *testing.T) {
	for _, m := range []*sm.Machine{sm.LTE2Level(), sm.EMMECM(), sm.FiveGSA()} {
		pf, err := NewPartialFit(FitOptions{Machine: m})
		if err != nil {
			t.Fatal(err)
		}
		lay := &pf.lay
		slots := lay.off[numCntKinds]
		rng := rand.New(rand.NewPCG(38, uint64(m.NumStates())))
		s := &partialSink{pf: pf, ue: 7}
		var dense [HoursPerDay]denseRow
		type key struct{ kind, a, b uint8 }
		var pick [HoursPerDay][]key // the slots each hour draws from
		for h := range pick {
			for range []int{0, 1, 3, 8, 20, slots}[h%6] {
				kind := uint8(rng.IntN(int(numCntKinds)))
				sh := lay.shape[kind]
				pick[h] = append(pick[h], key{kind, uint8(rng.IntN(sh.na)), uint8(sh.b0 + rng.IntN(sh.nb))})
			}
		}
		for range 20000 {
			h := uint8(rng.IntN(HoursPerDay))
			if len(pick[h]) == 0 {
				continue
			}
			k := pick[h][rng.IntN(len(pick[h]))]
			s.tally(h, k.kind, k.a, k.b)
			if dense[h] == nil {
				dense[h] = make(denseRow, slots)
			}
			dense[h][denseSlot(lay, k.kind, k.a, k.b)]++
		}
		for h, row := range s.rows {
			if (row == nil) != (dense[h] == nil) {
				t.Fatalf("%s hour %d: sparse row %v, dense row %v", m.Name, h, row, dense[h])
			}
			var got []uint32
			if row != nil {
				got = make([]uint32, slots)
			}
			for i, e := range row {
				if e.n == 0 || i > 0 && e.slot <= row[i-1].slot {
					t.Fatalf("%s hour %d: entry %d %+v after %+v: not strictly ascending with n > 0", m.Name, h, i, e, row[max(i-1, 0)])
				}
				kind, a, b := lay.key(int(e.slot))
				got[denseSlot(lay, kind, a, b)] = e.n
			}
			if !reflect.DeepEqual(denseRow(got), dense[h]) {
				t.Fatalf("%s hour %d: sparse row holds %v, dense %v", m.Name, h, got, dense[h])
			}
			sparseAcc, denseAcc := newAcc[uint32](), newAcc[uint32]()
			lay.applyRow(&sparseAcc.accCounts, row)
			if row != nil {
				dense[h].apply(lay, &denseAcc.accCounts)
			}
			if !reflect.DeepEqual(sparseAcc, denseAcc) {
				t.Fatalf("%s hour %d: applyRow fills %+v, the dense row %+v", m.Name, h, sparseAcc, denseAcc)
			}
		}
		var sparseCols, denseCols partialCounts
		lay.encodeCounts(&sparseCols, s.ue, s)
		encodeDense(lay, &denseCols, s.ue, &dense)
		if len(sparseCols.N) == 0 || !reflect.DeepEqual(sparseCols, denseCols) {
			t.Fatalf("%s: encodeCounts writes %+v, the dense rows %+v", m.Name, sparseCols, denseCols)
		}
	}
}
