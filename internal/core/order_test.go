package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// tagged is one sample with its (UE, seq) identity and pool, as the
// oracles below see it.
type tagged struct {
	ue  cp.UEID
	seq uint32
	k   poolKey
	v   float64
}

// sojournStdsBySort is sojournStds as it was before samples were logged
// per UE: concatenate the hour's top pools of state s, comparison-sort by
// (UE, seq), group by UE. Kept only as the oracle for
// TestSojournStdsMatchesSort.
func sojournStdsBySort(samples []tagged, h int, s cp.UEState) map[cp.UEID]float64 {
	var all []tagged
	for _, t := range samples {
		if t.k.Hour == uint8(h) && t.k.Kind == poolTop && t.k.A == uint8(s) {
			all = append(all, t)
		}
	}
	slices.SortFunc(all, func(x, y tagged) int { return cmp.Or(cmp.Compare(x.ue, y.ue), cmp.Compare(x.seq, y.seq)) })
	out := make(map[cp.UEID]float64)
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].ue == all[i].ue {
			j++
		}
		vs := make([]float64, 0, j-i)
		for _, t := range all[i:j] {
			vs = append(vs, t.v)
		}
		out[all[i].ue] = stats.StdDev(vs)
		i = j
	}
	return out
}

// TestSojournStdsMatchesSort compares the clustering features read from
// the UEs' logs with the sort-and-map reference bit for bit, including
// UEs that have no sample (0 in both) and samples of other pools and
// hours — DEREGISTERED sojourns among them — interleaved with the ones
// that count.
func TestSojournStdsMatchesSort(t *testing.T) {
	r := stats.NewRNG(13)
	ues := []cp.UEID{2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1 << 31}
	const h = 7
	pf, err := NewPartialFit(FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*partialSink, len(ues))
	for i, ue := range ues {
		sinks[i] = &partialSink{pf: pf, ue: ue}
	}
	sinks[0] = nil // a UE without events has no sink
	var samples []tagged
	for range 3000 {
		i := 1 + r.Intn(len(ues)-2) // the first and last UE get no sample
		k := poolKey{Hour: h, Kind: poolTop, A: uint8(r.Intn(cp.NumUEStates)), B: uint8(r.Intn(cp.NumEventTypes))}
		switch r.Intn(4) {
		case 0:
			k.Hour = uint8(r.Intn(HoursPerDay))
		case 1:
			k.Kind, k.A = poolBot, uint8(r.Intn(pf.opt.Machine.NumStates()))
		}
		ms := cp.Millis(r.Lognormal(10, 2))
		samples = append(samples, tagged{ues[i], sinks[i].seq, k, ms.Seconds()})
		sinks[i].sample(k, ms)
	}
	conn, idle := sojournStds(&pf.lay, sinks, h)
	for s, got := range map[cp.UEState][]float64{cp.StateConnected: conn, cp.StateIdle: idle} {
		want := sojournStdsBySort(samples, h, s)
		for i, ue := range ues {
			if math.Float64bits(got[i]) != math.Float64bits(want[ue]) {
				t.Fatalf("state %v UE %d: std %v, reference %v", s, ue, got[i], want[ue])
			}
		}
	}
}

// TestLogRecordsRoundTrip reads back what log writes, for values of every
// uvarint length from one byte to ten, and checks that skip lands where
// record does.
func TestLogRecordsRoundTrip(t *testing.T) {
	r := stats.NewRNG(21)
	pf, err := NewPartialFit(FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := &partialSink{pf: pf}
	type rec struct {
		k  poolKey
		ms uint64
	}
	var want []rec
	for i := range 5000 {
		k := poolKey{Hour: uint8(r.Intn(3)), Kind: uint8(r.Intn(numPoolKinds)), A: uint8(r.Intn(cp.NumUEStates)), B: uint8(r.Intn(cp.NumEventTypes))}
		ms := r.Uint64() >> (i % 64)
		want = append(want, rec{k, ms})
		s.log(k, ms)
	}
	var at [HoursPerDay]int
	for i, h := range s.hours {
		b := s.logs[h]
		key, ms, next := record(b, at[h])
		if got := (rec{pf.lay.poolKeyAt(int(h)*pf.lay.poolsPerHour() + int(key)), ms}); got != want[i] {
			t.Fatalf("sample %d: read %+v, logged %+v", i, got, want[i])
		}
		if sk := skip(b, at[h]); sk != next {
			t.Fatalf("sample %d: skip lands at %d, record at %d", i, sk, next)
		}
		at[h] = next
	}
	for h, b := range s.logs {
		if at[h] != len(b) {
			t.Fatalf("hour %d: %d of %d log bytes read", h, at[h], len(b))
		}
	}
}
