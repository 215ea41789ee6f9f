package experiments

import (
	"io"
	"math"
	"strings"
	"testing"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/par"
	"cptraffic/internal/trace"
)

// testLab returns a shared, small-scale lab. Sharing amortizes the world
// generation and the four model fits across all tests in the package.
var sharedLab = NewLab(Config{
	TrainUEs:     500,
	Days:         1,
	Scenario1UEs: 500,
	Scenario2UEs: 2500,
	BusyHour:     18,
	ThetaN:       60,
	Seed:         7,
})

// TestLabConcurrentAccess contends Lab's mutex, which nothing else in
// the tree does (experiments run one after another), so the race build
// sees the lazily filled caches: eight workers fill one cold lab and
// must all be handed the same cached values.
func TestLabConcurrentAccess(t *testing.T) {
	lab := NewLab(Config{TrainUEs: 40, Days: 1, Scenario1UEs: 40, Scenario2UEs: 40, BusyHour: 18, ThetaN: 10, Seed: 3, Workers: 1})
	const workers = 8
	var trains, reals [workers]*trace.Trace
	var ours [workers]*core.ModelSet
	var errs [workers][3]error
	par.For(workers, workers, func(i int) {
		var models map[string]*core.ModelSet
		trains[i], errs[i][0] = lab.Train()
		reals[i], errs[i][1] = lab.RealScenario(1)
		models, errs[i][2] = lab.Models()
		ours[i] = models["ours"]
	})
	for i := range errs {
		for _, err := range errs[i] {
			if err != nil {
				t.Fatal(err)
			}
		}
		if trains[i] == nil || reals[i] == nil || ours[i] == nil ||
			trains[i] != trains[0] || reals[i] != reals[0] || ours[i] != ours[0] {
			t.Errorf("worker %d was handed its own copy of a cached value", i)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	var sb strings.Builder
	if err := Table1(sharedLab, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "SRV_REQ", "HO", "TAU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestBreakdownErrorsOrdering(t *testing.T) {
	// The reproduction's headline: ours/v2 beat v1 beat base.
	errs, err := BreakdownErrors(sharedLab, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cp.DeviceTypes {
		base, v1, v2, ours := errs["base"][d], errs["v1"][d], errs["v2"][d], errs["ours"][d]
		flatWorst := math.Min(base, v1)
		if !(ours < flatWorst && v2 < flatWorst) {
			t.Errorf("%v: two-level methods (ours %.3f, v2 %.3f) must beat the flat methods (base %.3f, v1 %.3f)",
				d, ours, v2, base, v1)
		}
		if ours > 0.15 {
			t.Errorf("%v: ours error %.3f too large", d, ours)
		}
		if base < 2*ours || base < 0.08 {
			t.Errorf("%v: base error %.3f suspiciously small vs ours %.3f — free processes broken?", d, base, ours)
		}
	}
}

func TestBreakdownTableRenders(t *testing.T) {
	var sb strings.Builder
	if err := BreakdownTable(sharedLab, &sb, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 11") {
		t.Fatal("missing table 11 title")
	}
	sb.Reset()
	if err := BreakdownTable(sharedLab, &sb, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 4") || !strings.Contains(sb.String(), "HO (IDLE)") {
		t.Fatal("table 4 malformed")
	}
}

func TestMicroDistancesOursBeatsV2(t *testing.T) {
	// Table 5's shape: ours <= v2 on most rows; assert on the dominant
	// phone rows with slack for small-scale noise.
	v2, err := MicroDistancesFor(sharedLab, 1, "v2", cp.Phone)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := MicroDistancesFor(sharedLab, 1, "ours", cp.Phone)
	if err != nil {
		t.Fatal(err)
	}
	if ours.SrvReqPerUE > v2.SrvReqPerUE+0.05 {
		t.Errorf("SRV_REQ/UE: ours %.3f vs v2 %.3f", ours.SrvReqPerUE, v2.SrvReqPerUE)
	}
	if ours.Connected > v2.Connected+0.05 {
		t.Errorf("CONNECTED sojourn: ours %.3f vs v2 %.3f", ours.Connected, v2.Connected)
	}
	if ours.Idle > v2.Idle+0.05 {
		t.Errorf("IDLE sojourn: ours %.3f vs v2 %.3f", ours.Idle, v2.Idle)
	}
}

func TestTables5And6Render(t *testing.T) {
	if err := Table5(sharedLab, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := Table6(sharedLab, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7Renders(t *testing.T) {
	var sb strings.Builder
	if err := Figure7(sharedLab, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "F_ours") {
		t.Fatal("figure 7 series missing")
	}
}

func TestHOIdleLeakSeparatesMethods(t *testing.T) {
	leak, err := HOIdleLeak(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if leak["ours"] != 0 || leak["v2"] != 0 {
		t.Fatalf("two-level methods leak HO in IDLE: %v", leak)
	}
	if leak["base"] <= 0 || leak["v1"] <= 0 {
		t.Fatalf("flat methods should leak HO in IDLE: %v", leak)
	}
}

func TestDiurnalSwing(t *testing.T) {
	swing, err := DiurnalSwing(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cp.DeviceTypes {
		if swing[d] < 2 {
			t.Errorf("%v: diurnal swing %.2f < 2", d, swing[d])
		}
	}
	// Cars swing hardest (paper: up to 1309x).
	if swing[cp.ConnectedCar] <= swing[cp.Tablet] {
		t.Errorf("cars (%.1f) should swing more than tablets (%.1f)",
			swing[cp.ConnectedCar], swing[cp.Tablet])
	}
}

func TestFigure3GapsPositive(t *testing.T) {
	gaps, err := Figure3Gaps(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) == 0 {
		t.Fatal("no gaps")
	}
	for q, g := range gaps {
		if math.IsNaN(g) {
			t.Errorf("%s: NaN gap", q)
			continue
		}
		if g < 0.05 {
			t.Errorf("%s: log gap %.3f — world not burstier than Poisson", q, g)
		}
	}
}

func TestFigure4ObservedTailsExceedFit(t *testing.T) {
	ratios, err := Figure4Ranges(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	conn := ratios[cp.StateConnected.String()]
	if conn <= 1.5 {
		t.Errorf("CONNECTED observed/fitted max ratio %.2f, want > 1.5", conn)
	}
}

func TestPoissonPassRateLow(t *testing.T) {
	r, err := PoissonPassRate(sharedLab, eval.Quantity{Kind: eval.QInterArrival, Event: cp.ServiceRequest})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r) {
		t.Skip("no testable units at this scale")
	}
	// At the full default scale this sits near 0 (see EXPERIMENTS.md);
	// at this package's tiny test scale the clusters are small and
	// homogeneous enough that K-S keeps some blind spots, so the gate
	// only catches gross regressions.
	if r > 0.35 {
		t.Errorf("clustered Poisson pass rate for SRV_REQ = %.2f, want near 0", r)
	}
}

func TestClusterCountsPositive(t *testing.T) {
	n, err := ClusterCounts(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if n < 24*3 {
		t.Fatalf("only %d models", n)
	}
	if err := Clusters(sharedLab, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestFiveGShares(t *testing.T) {
	lte, nsa, sa, err := FiveGShares(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if !(nsa > sa && sa > lte) {
		t.Fatalf("HO shares: LTE %.4f, NSA %.4f, SA %.4f — want NSA > SA > LTE", lte, nsa, sa)
	}
}

func TestDiurnalCorrelationHigh(t *testing.T) {
	corr, err := DiurnalCorrelation(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	// 0.987 at the default scale (EXPERIMENTS.md); the gate is looser at
	// this package's single-training-day test scale.
	if math.IsNaN(corr) || corr < 0.8 {
		t.Fatalf("hourly volume correlation = %.3f, want > 0.8", corr)
	}
}

func TestRenderAllRemainingExperiments(t *testing.T) {
	for name, fn := range map[string]func(*Lab, io.Writer) error{
		"table7":    Table7,
		"table8":    Table8,
		"table9":    Table9,
		"table10":   Table10,
		"fig2":      Figure2,
		"fig3":      Figure3,
		"fig4":      Figure4,
		"abl-theta": AblationClusterThresholds,
		"abl-res":   AblationTableResolution,
		"abl-flat":  AblationTwoLevelVsFlat,
		"growth":    GrowthProjection,
		"diurnal":   DiurnalFidelity,
		"improve":   ImprovementTable,
	} {
		if err := fn(sharedLab, io.Discard); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
