package lint

import "testing"

// Each analyzer runs alone against its fixture package; expectations
// are the // want comments inside the fixtures.

func TestDetMapFixture(t *testing.T) {
	runFixture(t, []*Analyzer{DetMap}, "cptraffic/internal/world")
}

func TestDetSourceFixture(t *testing.T) {
	runFixture(t, []*Analyzer{DetSource}, "cptraffic/internal/stats")
}

func TestExhaustiveFixture(t *testing.T) {
	runFixture(t, []*Analyzer{Exhaustive}, "cptraffic/internal/sm")
}

func TestFloatFoldFixture(t *testing.T) {
	runFixture(t, []*Analyzer{FloatFold}, "cptraffic/internal/ffold")
}

func TestFrozenFixture(t *testing.T) {
	runFixture(t, []*Analyzer{Frozen}, "cptraffic/internal/core")
}

// TestFrozenCrossPackage pins that the frozen family is resolved
// through the import graph: the report fixture mutates core's model
// types from outside core.
func TestFrozenCrossPackage(t *testing.T) {
	runFixture(t, []*Analyzer{Frozen}, "cptraffic/internal/report")
}

// TestFrozenFivegExempt pins the whitelist: the 5G adapter package is
// the sanctioned clone-then-mutate surface.
func TestFrozenFivegExempt(t *testing.T) {
	if diags := runFixture(t, []*Analyzer{Frozen}, "cptraffic/internal/fiveg"); len(diags) != 0 {
		t.Errorf("want no diagnostics in the fiveg whitelist, got %d", len(diags))
	}
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, []*Analyzer{HotAlloc}, "cptraffic/internal/hot")
}

// TestRetainFixture covers the retain positive and negative space:
// direct retention, field stores, the interprocedural callback →
// helper → struct-field-store chain, CHA interface dispatch, channel
// sends, goroutine captures — and, annotation-free, the sanctioned
// copy idioms (AppendTo, CopyBatch, append(x[:0:0], x...)).
func TestRetainFixture(t *testing.T) {
	runFixture(t, []*Analyzer{Retain}, "cptraffic/internal/sink")
}

// TestTraceStubClean pins the negative space of the reuse contract:
// the reused type's own methods (Reset, Append, AppendTo, CopyBatch)
// write only through the receiver or copy idioms, so the full suite —
// in the determinism-gated internal/trace path — reports nothing.
func TestTraceStubClean(t *testing.T) {
	if diags := runFixture(t, All(), "cptraffic/internal/trace"); len(diags) != 0 {
		t.Errorf("trace stub should be clean, got %d diagnostics", len(diags))
	}
}

// TestNonDetPackageIsExempt runs the whole suite over a package outside
// the determinism-critical list: the order-sensitive map range and the
// time.Now call must not be reported — but floatfold runs module-wide,
// so the float fold is, and nothing else.
func TestNonDetPackageIsExempt(t *testing.T) {
	diags := runFixture(t, All(), "cptraffic/internal/util")
	if len(diags) != 1 {
		t.Errorf("want exactly the module-wide floatfold diagnostic, got %d", len(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "floatfold" {
			t.Errorf("non-floatfold diagnostic outside determinism-critical packages: %s", d)
		}
	}
}

// TestTreeClean pins the invariant `make lint` enforces: the real
// module, loaded fresh (no fixture shadowing), produces zero
// diagnostics under the full suite.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var l Loader
	pkgs, err := l.Load("cptraffic/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("go list matched no packages")
	}
	for _, d := range AnalyzeWorkers(pkgs, All(), 0) {
		t.Errorf("tree not clean: %s", d)
	}
}
