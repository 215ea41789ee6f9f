package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

func TestKaplanMeierNoCensoring(t *testing.T) {
	fired := []float64{1, 2, 3, 4, 5}
	q, tail, ok := KaplanMeier(fired, nil)
	if !ok {
		t.Fatal("not ok")
	}
	if tail != 0 {
		t.Fatalf("tail = %v, want 0", tail)
	}
	// Without censoring KM is the empirical distribution.
	if q.Quantile(0) != 1 || q.Quantile(1) != 5 {
		t.Fatalf("endpoints = %v, %v", q.Quantile(0), q.Quantile(1))
	}
	if med := q.Quantile(0.5); med < 2 || med > 4 {
		t.Fatalf("median = %v", med)
	}
}

func TestKaplanMeierAllCensored(t *testing.T) {
	if _, tail, ok := KaplanMeier(nil, []float64{1, 2}); ok || tail != 1 {
		t.Fatal("all-censored should be not-ok with tail 1")
	}
}

func TestKaplanMeierKnownValues(t *testing.T) {
	// Classic worked example: events at 1, 3; censored at 2, 4.
	// n=4 at risk at t=1: S=3/4. At t=3, at risk = {3,4}: S=3/4 * 1/2 = 3/8.
	q, tail, ok := KaplanMeier([]float64{1, 3}, []float64{2, 4})
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(tail-0.375) > 1e-12 {
		t.Fatalf("tail = %v, want 0.375", tail)
	}
	// Conditional CDF: F(1) = 0.25/0.625 = 0.4, F(3) = 1.
	if got := q.CDF(1); math.Abs(got-0.4) > 0.05 {
		t.Fatalf("F(1) = %v, want ~0.4", got)
	}
	if got := q.CDF(3); got != 1 {
		t.Fatalf("F(3) = %v", got)
	}
}

func TestKaplanMeierRecoversMarginalUnderCensoring(t *testing.T) {
	// Event times ~ Exp(1), censor times ~ Exp(0.5) independent. The KM
	// estimate of the event marginal should be close to Exp(1) in spite
	// of heavy censoring.
	r := NewRNG(31)
	var fired, censored []float64
	for i := 0; i < 30000; i++ {
		e := r.Exp(1)
		c := r.Exp(0.5)
		if e <= c {
			fired = append(fired, e)
		} else {
			censored = append(censored, c)
		}
	}
	q, tail, ok := KaplanMeier(fired, censored)
	if !ok {
		t.Fatal("not ok")
	}
	truth := Exponential{Lambda: 1}
	// Compare the conditional-given-finite KM quantiles against the
	// truth conditioned at the same mass: F_cond(t) = F(t)/(1-tail).
	fMax := 1 - tail
	for p := 0.05; p < 0.9; p += 0.1 {
		got := q.Quantile(p)
		want := truth.Quantile(p * fMax)
		if math.Abs(got-want) > 0.12*want+0.03 {
			t.Fatalf("p=%v: KM %v vs truth %v (tail %v)", p, got, want, tail)
		}
	}
	// Naive fitting on uncensored only would give a much smaller median.
	naive := NewEmpirical(fired)
	if naive.Quantile(0.5) >= q.Quantile(0.5) {
		t.Fatal("KM should shift mass right of the naive uncensored fit")
	}
}

func TestKaplanMeierTiesHandled(t *testing.T) {
	// Event and censoring at the same time: censored unit still at risk.
	// n=3 at t=1 (1 event): S = 2/3. Then censored at 1 and 2 -> tail 2/3.
	_, tail, ok := KaplanMeier([]float64{1}, []float64{1, 2})
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(tail-2.0/3) > 1e-12 {
		t.Fatalf("tail = %v, want 2/3", tail)
	}
}

func TestCensoredExpMLE(t *testing.T) {
	// lambda = events / total time.
	l, ok := CensoredExpMLE([]float64{1, 2}, []float64{3})
	if !ok || math.Abs(l-2.0/6) > 1e-12 {
		t.Fatalf("lambda = %v, ok=%v", l, ok)
	}
	if _, ok := CensoredExpMLE(nil, []float64{1}); ok {
		t.Fatal("no events accepted")
	}
	if _, ok := CensoredExpMLE([]float64{0}, nil); ok {
		t.Fatal("zero total time accepted")
	}
	if _, ok := CensoredExpMLE([]float64{-1, 2}, nil); ok {
		t.Fatal("negative time accepted")
	}
}

func TestCensoredExpMLERecoversRate(t *testing.T) {
	r := NewRNG(33)
	var fired, censored []float64
	for i := 0; i < 30000; i++ {
		e := r.Exp(2)
		c := r.Exp(1)
		if e <= c {
			fired = append(fired, e)
		} else {
			censored = append(censored, c)
		}
	}
	l, ok := CensoredExpMLE(fired, censored)
	if !ok || math.Abs(l-2) > 0.05 {
		t.Fatalf("lambda = %v", l)
	}
}

// kaplanMeierSortSlice is the estimator as it was before the two sides
// were sorted as plain floats: every observation materialised as a
// (t, event) struct, reflection-sorted with events before censorings at
// equal t. Kept only as the oracle for TestKaplanMeierMatchesSortSlice.
func kaplanMeierSortSlice(fired, censored []float64) (q *QuantileTable, tail float64, ok bool) {
	if len(fired) == 0 {
		return nil, 1, false
	}
	type obs struct {
		t     float64
		event bool
	}
	all := make([]obs, 0, len(fired)+len(censored))
	for _, t := range fired {
		all = append(all, obs{t, true})
	}
	for _, t := range censored {
		all = append(all, obs{t, false})
	}
	// Sort by time; at ties, events before censorings (the standard
	// convention: a unit censored at t was still at risk at t).
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		return all[i].event && !all[j].event
	})

	n := len(all)
	type step struct {
		t float64
		F float64 // cumulative incidence 1 - S(t)
	}
	var steps []step
	S := 1.0
	i := 0
	for i < n {
		t := all[i].t
		d := 0 // events at t
		j := i
		for j < n && all[j].t == t {
			if all[j].event {
				d++
			}
			j++
		}
		atRisk := n - i
		if d > 0 {
			S *= 1 - float64(d)/float64(atRisk)
			steps = append(steps, step{t: t, F: 1 - S})
		}
		i = j
	}
	tail = S
	fMax := 1 - S
	if fMax <= 0 {
		return nil, 1, false
	}
	// Build the conditional-given-finite quantile table by inverting
	// F(t)/fMax over an even probability grid.
	// Always use the full grid: unlike a plain sample table, KM steps
	// carry unequal probability masses, and a coarse grid would misplace
	// them.
	points := DefaultQuantilePoints
	qv := make([]float64, points)
	si := 0
	for k := 0; k < points; k++ {
		p := float64(k) / float64(points-1) * fMax
		for si < len(steps)-1 && steps[si].F < p {
			si++
		}
		qv[k] = steps[si].t
	}
	// Guarantee exact lower/upper endpoints.
	qv[0] = steps[0].t
	qv[points-1] = steps[len(steps)-1].t
	return &QuantileTable{Q: qv}, tail, true
}

// TestKaplanMeierMatchesSortSlice demands bit-equal output from the
// float-sort walk and the struct-sort reference on inputs heavy in ties:
// times on a coarse grid, so equal t within and across the fired and
// censored sides is the common case.
func TestKaplanMeierMatchesSortSlice(t *testing.T) {
	check := func(name string, fired, censored []float64) {
		t.Helper()
		f0, c0 := slices.Clone(fired), slices.Clone(censored)
		wq, wtail, wok := kaplanMeierSortSlice(fired, censored)
		gq, gtail, gok := KaplanMeier(fired, censored)
		if gok != wok || math.Float64bits(gtail) != math.Float64bits(wtail) {
			t.Fatalf("%s: got tail=%v ok=%v, reference tail=%v ok=%v", name, gtail, gok, wtail, wok)
		}
		if (gq == nil) != (wq == nil) {
			t.Fatalf("%s: table nil-ness differs", name)
		}
		if gq != nil {
			if len(gq.Q) != len(wq.Q) {
				t.Fatalf("%s: table length %d, reference %d", name, len(gq.Q), len(wq.Q))
			}
			for i := range gq.Q {
				if math.Float64bits(gq.Q[i]) != math.Float64bits(wq.Q[i]) {
					t.Fatalf("%s: Q[%d] = %v, reference %v", name, i, gq.Q[i], wq.Q[i])
				}
			}
		}
		if !slices.Equal(fired, f0) || !slices.Equal(censored, c0) {
			t.Fatalf("%s: KaplanMeier modified its arguments", name)
		}
	}
	check("one element", []float64{3}, nil)
	check("one element, censored at the same t", []float64{3}, []float64{3})
	check("all duplicates", []float64{2, 2, 2, 2}, []float64{2, 2})
	check("last event censored past", []float64{1, 1, 4}, []float64{0.5, 4, 4, 9})
	r := NewRNG(99)
	for trial := 0; trial < 400; trial++ {
		grid := 1 + r.Intn(12) // distinct times available: few, so ties abound
		draw := func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(grid)) / 4
			}
			return xs
		}
		fired := draw(1 + r.Intn(60))
		var censored []float64
		if trial%5 != 0 { // every fifth trial: empty censored
			censored = draw(r.Intn(80))
		}
		check("random", fired, censored)
	}
}
