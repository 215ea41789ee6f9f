package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A treeSeed is one violation planted in a copy of a real file: each
// edit replaces old (which must occur exactly once — a seed whose old
// text has drifted away fails the test, it is never skipped) with new,
// and analyzer must then report on the line of the first occurrence of
// at after the last edit, with sub in the message.
type treeSeed struct {
	analyzer string
	file     string
	edits    [][2]string
	at       string
	sub      string
}

// treeSeeds plants one violation per kept analyzer in the code that
// analyzer exists to guard.
var treeSeeds = []treeSeed{
	{
		analyzer: "detmap", file: "internal/core/partialfit.go",
		edits: [][2]string{{"\tslices.Sort(finishOrder)\n", ""}},
		at:    "for ue := range pf.exts {",
	},
	{
		analyzer: "detsource", file: "internal/trace/population.go",
		edits: [][2]string{
			{"import (\n", "import (\n\t\"time\"\n"},
			{"\truns := make([]KeyRun, workers)\n\tpar.Do(", "\t_ = time.Now()\n\truns := make([]KeyRun, workers)\n\tpar.Do("},
		},
		at: "_ = time.Now()",
	},
	{
		// sm.MacroAfter with its default arm dropped: Category-2 events
		// fall through the switch.
		analyzer: "exhaustive", file: "internal/sm/macro.go",
		edits: [][2]string{{
			"\tswitch e {\n\tcase cp.Attach, cp.ServiceRequest:\n\t\treturn cp.StateConnected\n\tcase cp.Detach:\n\t\treturn cp.StateDeregistered\n\tcase cp.S1ConnRelease:\n\t\treturn cp.StateIdle\n\tdefault: // Category-2 (HO, TAU): no macro transition to give\n\t\tpanic(\"sm: MacroAfter of Category-2 event\")\n\t}\n",
			"\tswitch e {\n\tcase cp.Attach, cp.ServiceRequest:\n\t\treturn cp.StateConnected\n\tcase cp.Detach:\n\t\treturn cp.StateDeregistered\n\tcase cp.S1ConnRelease:\n\t\treturn cp.StateIdle\n\t}\n\tpanic(\"sm: MacroAfter of Category-2 event\")\n",
		}},
		at:  "switch e {",
		sub: "missing Handover, TrackingAreaUpdate",
	},
	{
		analyzer: "floatfold", file: "internal/core/fit.go",
		edits: [][2]string{{
			"\tvar topTotal [cp.NumUEStates]int\n",
			"\tvar topTotal [cp.NumUEStates]int\n\tvar sojSum float64\n\tfor _, vs := range a.TopSoj {\n\t\tsojSum += float64(vs[0])\n\t}\n\tcm.Top[0].PExit = sojSum\n",
		}},
		at: "sojSum += float64(vs[0])",
	},
	{
		analyzer: "frozen", file: "internal/core/gen.go",
		edits: [][2]string{{"\treturn p.population().Generate(opt.Workers)\n", "\tms.Method = \"seeded\"\n\treturn p.population().Generate(opt.Workers)\n"}},
		at:    "ms.Method = \"seeded\"",
	},
	{
		analyzer: "hotalloc", file: "internal/core/gen.go",
		edits: [][2]string{{"\tkind := 0 // 0 none, 1 top, 2 bottom, 3 free\n", "\tkind := 0 // 0 none, 1 top, 2 bottom, 3 free\n\t_ = make([]cp.Millis, len(g.freeAt))\n"}},
		at:    "_ = make([]cp.Millis, len(g.freeAt))",
	},
	{
		analyzer: "retain", file: "internal/core/partialfit.go",
		edits: [][2]string{{
			"\treturn src.ScanBatches(func(b *trace.Batch) error {\n",
			"\tvar kept []*trace.Batch\n\treturn src.ScanBatches(func(b *trace.Batch) error {\n\t\tkept = append(kept, b)\n",
		}},
		at: "kept = append(kept, b)",
	},
}

// copyModule copies the module's go.mod and non-test Go sources — what
// the loader reads — into dst. Nested modules (bench/), fixture trees
// and dot-directories are not part of `cptraffic/...` and stay behind.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}

// TestAnalyzersBiteOnRealTree is TestTreeClean's other half: the real
// tree is clean because the analyzers look at it, not because they have
// nothing to look at. Every analyzer in All() must report the violation
// seeded into the real code it guards, on the seeded line, and nothing
// may be reported from a file no seed touched.
func TestAnalyzersBiteOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the whole module")
	}
	dir := t.TempDir()
	copyModule(t, filepath.Join("..", ".."), dir)

	// Plant every seed first, then locate the sites: several seeds share
	// a file, and a later one may shift the lines of an earlier one.
	srcs := make(map[string]string)
	for _, s := range treeSeeds {
		path := filepath.Join(dir, filepath.FromSlash(s.file))
		if _, ok := srcs[path]; !ok {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s seed: %v", s.analyzer, err)
			}
			srcs[path] = string(data)
		}
		for _, e := range s.edits {
			if n := strings.Count(srcs[path], e[0]); n != 1 {
				t.Fatalf("%s seed: %q occurs %d times in %s, want exactly 1 — the seed has drifted from the file", s.analyzer, e[0], n, s.file)
			}
			srcs[path] = strings.Replace(srcs[path], e[0], e[1], 1)
		}
	}
	for path, src := range srcs {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type site struct {
		file string
		line int
	}
	sites := make([]site, len(treeSeeds))
	for i, s := range treeSeeds {
		path := filepath.Join(dir, filepath.FromSlash(s.file))
		src := srcs[path]
		from := strings.Index(src, s.edits[len(s.edits)-1][1])
		if from < 0 {
			t.Fatalf("%s seed: another seed overwrote its edit in %s", s.analyzer, s.file)
		}
		off := strings.Index(src[from:], s.at)
		if off < 0 {
			t.Fatalf("%s seed: %q not found after the edit in %s", s.analyzer, s.at, s.file)
		}
		sites[i] = site{path, 1 + strings.Count(src[:from+off], "\n")}
	}

	l := Loader{Dir: dir}
	pkgs, err := l.Load("cptraffic/...")
	if err != nil {
		t.Fatalf("loading seeded copy: %v", err)
	}
	diags := AnalyzeWorkers(pkgs, All(), 0)

	seeded := make(map[string]bool)
	for _, s := range sites {
		seeded[s.file] = true
	}
	for _, d := range diags {
		if !seeded[d.Pos.Filename] {
			t.Errorf("finding in a file no seed touched: %s", d)
		}
	}
	ran := make(map[string]bool)
	for i, s := range treeSeeds {
		ran[s.analyzer] = true
		hit := false
		for _, d := range diags {
			if d.Analyzer == s.analyzer && d.Pos.Filename == sites[i].file && d.Pos.Line == sites[i].line && strings.Contains(d.Message, s.sub) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s did not report its seed at %s:%d (message containing %q)", s.analyzer, s.file, sites[i].line, s.sub)
		}
	}
	for _, a := range All() {
		if !ran[a.Name] {
			t.Errorf("analyzer %s has no seed: add one, or it guards nothing in the tree", a.Name)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}
