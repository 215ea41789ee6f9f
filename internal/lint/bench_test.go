package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkLintAnalyze records the analysis cost in the bench ledger:
// each analyzer alone over the fixture tree (the call-graph-backed one,
// retain, pays for the substrate, rebuilt per run), the seven-analyzer
// suite over the same tree, and the suite over the real
// module — so a structural regression in the interprocedural substrate
// (fixpoint blowup, CHA over a huge candidate set) shows up in
// BENCH_<date>.json next to generation throughput. Type-checking is
// setup, not measured: the ledger quantity is analysis.
func BenchmarkLintAnalyze(b *testing.B) {
	l := &Loader{}
	if err := l.AddFixtureTree(filepath.Join("testdata", "src")); err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadPaths(allFixturePaths...)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range All() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AnalyzeWorkers(pkgs, []*Analyzer{a}, 0)
			}
		})
	}
	b.Run("suite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AnalyzeWorkers(pkgs, All(), 0)
		}
	})
	b.Run("tree", func(b *testing.B) {
		var tl Loader
		tpkgs, err := tl.Load("cptraffic/...")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AnalyzeWorkers(tpkgs, All(), 0)
		}
	})
}
