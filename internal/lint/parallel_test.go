package lint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// allFixturePaths lists every fixture package, so the parallel loader
// and analyzer runs exercise a real dependency fan (cluster, sm, and
// report all import other fixture packages).
var allFixturePaths = []string{
	"cptraffic/internal/cluster",
	"cptraffic/internal/core",
	"cptraffic/internal/cp",
	"cptraffic/internal/eval",
	"cptraffic/internal/ffold",
	"cptraffic/internal/fiveg",
	"cptraffic/internal/hot",
	"cptraffic/internal/hotchain",
	"cptraffic/internal/par",
	"cptraffic/internal/report",
	"cptraffic/internal/retainneg",
	"cptraffic/internal/sink",
	"cptraffic/internal/sm",
	"cptraffic/internal/stats",
	"cptraffic/internal/trace",
	"cptraffic/internal/util",
	"cptraffic/internal/world",
}

func diagString(diags []Diagnostic) string {
	var b bytes.Buffer
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// TestAnalyzeWorkerCountIndependent pins the satellite invariant: the
// analysis fan-out must never change the output bytes.
func TestAnalyzeWorkerCountIndependent(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.LoadPaths(allFixturePaths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	base := diagString(AnalyzeWorkers(pkgs, All(), 1))
	if base == "" {
		t.Fatal("fixture analysis produced no diagnostics; the comparison is vacuous")
	}
	// The call-graph-backed analyzers must be part of the comparison:
	// their substrate is built once before the fan-out, and this is the
	// test that pins that choice.
	for _, name := range []string{" retain: ", " hotcall: "} {
		if !strings.Contains(base, name) {
			t.Errorf("baseline diagnostics carry no%sfindings; the call-graph coverage is vacuous", name)
		}
	}
	for _, workers := range []int{0, 2, 3, 16} {
		if got := diagString(AnalyzeWorkers(pkgs, All(), workers)); got != base {
			t.Errorf("workers=%d changed the diagnostics:\n--- workers=1\n%s--- workers=%d\n%s", workers, base, workers, got)
		}
	}
}

// TestLoaderWorkerCountIndependent type-checks the whole fixture tree
// on a fresh parallel loader and checks the diagnostics match a fresh
// serial loader's byte for byte — the worker count shapes only the
// schedule, never the result. Under -race this also exercises the
// loader's concurrent type-checking.
func TestLoaderWorkerCountIndependent(t *testing.T) {
	load := func(workers int) string {
		l := &Loader{Workers: workers}
		if err := l.AddFixtureTree(filepath.Join("testdata", "src")); err != nil {
			t.Fatalf("fixture tree: %v", err)
		}
		pkgs, err := l.LoadPaths(allFixturePaths...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return diagString(AnalyzeWorkers(pkgs, All(), workers))
	}
	serial := load(1)
	if parallel := load(8); parallel != serial {
		t.Errorf("parallel loader changed the diagnostics:\n--- serial\n%s--- parallel\n%s", serial, parallel)
	}
}
