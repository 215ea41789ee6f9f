package core

import (
	"math"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

func TestFitSojournTable(t *testing.T) {
	samples := []uint32{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	s := fitSojourn(samples, SojournTable, new(fitScratch[uint32]))
	if s.Kind != SojournTable || !s.Valid() {
		t.Fatalf("got %+v", s)
	}
	if m := s.Mean(); math.Abs(m-5.5) > 0.5 {
		t.Fatalf("mean = %v", m)
	}
	// Small samples get small tables.
	if len(s.Q) > len(samples)+1 {
		t.Fatalf("table has %d points for %d samples", len(s.Q), len(samples))
	}
}

func TestFitSojournExp(t *testing.T) {
	r := stats.NewRNG(1)
	samples := make([]uint32, 1000)
	for i := range samples {
		samples[i] = uint32(cp.MillisFromSeconds(r.Exp(0.5)))
	}
	s := fitSojourn(samples, SojournExp, new(fitScratch[uint32]))
	if s.Kind != SojournExp {
		t.Fatalf("kind = %q", s.Kind)
	}
	if math.Abs(s.Lambda-0.5) > 0.05 {
		t.Fatalf("lambda = %v", s.Lambda)
	}
}

func TestFitSojournDegenerate(t *testing.T) {
	sc := new(fitScratch[uint32])
	if s := fitSojourn(nil, SojournTable, sc); s.Kind != SojournConst || s.Value != 60 {
		t.Fatalf("empty -> %+v", s)
	}
	if s := fitSojourn([]uint32{7000, 7000, 7000}, SojournTable, sc); s.Kind != SojournConst || s.Value != 7 {
		t.Fatalf("constant -> %+v", s)
	}
	if s := fitSojourn([]uint32{3000}, SojournExp, sc); s.Kind != SojournConst || s.Value != 3 {
		t.Fatalf("single -> %+v", s)
	}
	// Exp fit of a degenerate (all-zero) sample falls back to const.
	if s := fitSojourn([]uint32{0, 0, 0}, SojournExp, sc); s.Kind != SojournConst {
		t.Fatalf("zero-exp -> %+v", s)
	}
}

func TestSojournSampleBounds(t *testing.T) {
	r := stats.NewRNG(2)
	table := fitSojourn([]uint32{1000, 2000, 3000, 4000, 5000}, SojournTable, new(fitScratch[uint32]))
	for i := 0; i < 1000; i++ {
		x := table.Sample(r)
		if x < 1 || x > 5 {
			t.Fatalf("table sample %v outside [1,5]", x)
		}
	}
	c := SojournModel{Kind: SojournConst, Value: 4.5}
	if c.Sample(r) != 4.5 {
		t.Fatal("const sample wrong")
	}
	e := SojournModel{Kind: SojournExp, Lambda: 2}
	for i := 0; i < 100; i++ {
		if e.Sample(r) <= 0 {
			t.Fatal("exp sample non-positive")
		}
	}
}

func TestSojournValidAndDist(t *testing.T) {
	cases := []struct {
		s    SojournModel
		want bool
	}{
		{SojournModel{Kind: SojournExp, Lambda: 1}, true},
		{SojournModel{Kind: SojournExp, Lambda: 0}, false},
		{SojournModel{Kind: SojournConst, Value: 0}, true},
		{SojournModel{Kind: SojournConst, Value: -1}, false},
		{SojournModel{Kind: SojournTable, Q: []float64{1, 2}}, true},
		{SojournModel{Kind: SojournTable, Q: []float64{2, 1}}, false},
		{SojournModel{Kind: "bogus"}, false},
	}
	for i, c := range cases {
		if c.s.Valid() != c.want {
			t.Errorf("case %d: Valid() = %v", i, !c.want)
		}
	}
	cs := SojournModel{Kind: SojournConst, Value: 9}
	if m := cs.Dist().Mean(); m != 9 {
		t.Fatalf("const dist mean = %v", m)
	}
}

func TestSojournPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SojournModel{Kind: "bogus"}.Sample(stats.NewRNG(1))
}
