package core

import (
	"math"
	"testing"
	"unsafe"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
)

// The engine step's shortcuts are each held here to the code they replace:
// the persona search to the linear scan, the sojourn floor to math.Max, the
// cached cell to a fresh resolve. The whole engine is held to the
// interpreter by TestCompiledMatchesInterpreted and the digest pins.

// TestUEGenSize keeps the per-UE state a Source holds one of per UE at or
// below 192 B (TestSourceScanBytesPerUE's budget counts it; 168 today, 384
// while the staging queue held whole events and the free clocks were
// inline), and cDist, of which a model has one per fitted distribution, at
// or below 48 B.
func TestUEGenSize(t *testing.T) {
	t.Logf("ueGen %d B, cDist %d B", unsafe.Sizeof(ueGen{}), unsafe.Sizeof(cDist{}))
	if got := unsafe.Sizeof(ueGen{}); got > 192 {
		t.Errorf("unsafe.Sizeof(ueGen{}) = %d, want <= 192", got)
	}
	if got := unsafe.Sizeof(cDist{}); got > 48 {
		t.Errorf("unsafe.Sizeof(cDist{}) = %d, want <= 48", got)
	}
}

// pickByCumLinear is the linear scan pickByCum replaced: the first index
// whose cumulative probability exceeds u, defaulting to the last.
func pickByCumLinear(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// ulpAround returns x and its two neighbouring floats.
func ulpAround(x float64) []float64 {
	return []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
}

func TestPickByCumMatchesLinear(t *testing.T) {
	r := stats.NewRNG(9)
	many := make([]float64, 253) // a phone model's persona count, zero weights among them
	acc := 0.0
	for i := range many {
		if r.Intn(4) > 0 {
			acc += r.Float64() / 100
		}
		many[i] = acc
	}
	cases := map[string][]float64{
		"one":          {1},
		"one-short":    {0.75},
		"equal-runs":   {0, 0, 0.25, 0.25, 0.25, 0.5, 0.5, 1, 1, 1},
		"all-equal":    {0.5, 0.5, 0.5, 0.5},
		"short-of-one": {0.125, 0.375, 0.625}, // u above the last sum
		"253":          many,
	}
	for name, cum := range cases {
		us := []float64{0, 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
		for _, c := range cum {
			us = append(us, ulpAround(c)...) // u equal to a sum, and either side
		}
		for i := 0; i < 2000; i++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if got, want := pickByCum(cum, u), pickByCumLinear(cum, u); got != want {
				t.Fatalf("%s: pickByCum(u=%v) = %d, the linear scan %d", name, u, got, want)
			}
		}
	}
}

// compileDevice keeps the persona sums nondecreasing, so the binary search
// picks what the interpreter picks even from weights no fit produces.
func TestPersonaPickMatchesInterpreter(t *testing.T) {
	for name, weights := range map[string][]float64{
		"fitted-like": {0.25, 0, 0, 0.5, 0.25},
		"negative":    {0.5, -0.25, 0.5, -0.5, 0.75},
		"nan":         {0.25, math.NaN(), 0.75},
		"inf":         {0.5, math.Inf(-1), math.Inf(1)},
	} {
		dm := &DeviceModel{Hours: make([]HourModel, HoursPerDay)}
		for _, w := range weights {
			dm.Personas = append(dm.Personas, Persona{Cluster: make([]int, HoursPerDay), Weight: w})
		}
		cm := &compiledModel{}
		cd, err := compileDevice(dm, sm.LTE2Level())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seed := uint64(1); seed <= 3000; seed++ {
			rng := stats.NewRNG(seed)
			var g ueGen
			g.init(cm, cd, 0, *rng, 0, cp.Hour, &testClocks)
			if want := dm.pickPersona(rng); int(g.personaIdx) != want {
				t.Fatalf("%s seed %d: persona %d, the interpreter's %d", name, seed, g.personaIdx, want)
			}
		}
	}
}

func TestSojournMillisMatchesMax(t *testing.T) {
	ds := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072014e-308 / 2, 1, -1, 1e300, 3599.999}
	ds = append(ds, ulpAround(minSojournSec)...)
	for _, d := range ds {
		if got, want := sojournMillis(d), cp.MillisFromSeconds(math.Max(d, minSojournSec)); got != want {
			t.Errorf("sojournMillis(%v) = %d, MillisFromSeconds(math.Max) = %d", d, got, want)
		}
	}
}

// resolveUncached is the cell lookup cellAt caches: the persona's cluster
// for t's hour of day.
func resolveUncached(g *ueGen, t cp.Millis) *cCell {
	h := t.HourOfDay()
	cl := int16(-1)
	if g.personaIdx >= 0 {
		cl = g.cd.personaCl[g.personaIdx][h]
	}
	return &g.cd.cells[h][cl+1]
}

// The cached cell is the resolved one on both sides of every hour
// boundary and midnight of a 336-h window, for every persona and none,
// with times visited forward (as the engine does) and backward.
func TestCellCacheMatchesResolve(t *testing.T) {
	ms := fitToy(t, 50, 3*cp.Hour, 42, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile(ms, machine)
	if err != nil {
		t.Fatal(err)
	}
	cd := cm.dev(cp.Phone)
	if len(cd.personaCum) < 2 {
		t.Fatalf("%d phone personas; the test wants several", len(cd.personaCum))
	}
	const t0, span = 22 * cp.Hour, 336 * cp.Hour
	r := stats.NewRNG(6)
	for persona := -1; persona < len(cd.personaCum); persona++ {
		g := newUEGen(cm, cd, 1, stats.NewRNGVal(1), t0, t0+span)
		g.personaIdx = int32(persona)
		check := func(at cp.Millis) {
			if got, want := g.cellAt(at), resolveUncached(g, at); got != want {
				t.Fatalf("persona %d: cellAt(%d) (hour %d) is a stale cell", persona, at, at.HourOfDay())
			}
		}
		for b := t0; b <= t0+span; b += cp.Hour {
			check(b - 1)
			check(b)
			check(b + 1)
			check(b + cp.Millis(r.Intn(int(cp.Hour))))
		}
		for b := t0 + span; b >= t0; b -= cp.Hour {
			check(b)
			check(b - 1)
		}
	}
}
