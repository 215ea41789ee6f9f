package core_test

import (
	"testing"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/fiveg"
	"cptraffic/internal/world"
)

// TestCompiledCellsMatchResolversFiveG is TestCompiledCellsMatchResolvers
// for both 5G adaptations of a fitted LTE model: the SA one moves every
// level onto another machine and drops TAU, so whole states empty out and
// fall through. It lives in package core_test because fiveg imports core.
func TestCompiledCellsMatchResolversFiveG(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 150, Duration: 6 * cp.Hour, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	lte, err := core.Fit(tr, core.FitOptions{Cluster: cluster.Options{ThetaN: 40}})
	if err != nil {
		t.Fatal(err)
	}
	nsa, err := fiveg.ToNSA(lte, fiveg.NSAHandoverFactor)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := fiveg.ToSA(lte, fiveg.SAHandoverFactor)
	if err != nil {
		t.Fatal(err)
	}
	for name, ms := range map[string]*core.ModelSet{"NSA": nsa, "SA": sa} {
		if err := core.CompiledCellsMatchResolvers(ms); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
